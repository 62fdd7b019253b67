#include "src/remotemem/wire.h"

namespace zombie::remotemem {

using rdma::Payload;
using rdma::PayloadReader;
using rdma::PayloadWriter;

void EncodeGrant(PayloadWriter& writer, const BufferGrant& grant) {
  writer.PutU64(grant.id);
  writer.PutU64(grant.rkey);
  writer.PutU64(grant.size);
  writer.PutU32(grant.host);
  writer.PutU32(static_cast<std::uint32_t>(grant.type));
}

Result<BufferGrant> DecodeGrant(PayloadReader& reader) {
  BufferGrant grant;
  auto id = reader.GetU64();
  if (!id.ok()) {
    return id.status();
  }
  grant.id = id.value();
  auto rkey = reader.GetU64();
  if (!rkey.ok()) {
    return rkey.status();
  }
  grant.rkey = rkey.value();
  auto size = reader.GetU64();
  if (!size.ok()) {
    return size.status();
  }
  grant.size = size.value();
  auto host = reader.GetU32();
  if (!host.ok()) {
    return host.status();
  }
  grant.host = host.value();
  auto type = reader.GetU32();
  if (!type.ok()) {
    return type.status();
  }
  if (type.value() > 1) {
    return Status(ErrorCode::kInvalidArgument, "bad buffer type on the wire");
  }
  grant.type = static_cast<BufferType>(type.value());
  return grant;
}

void EncodeStatus(PayloadWriter& writer, const Status& status) {
  writer.PutU32(static_cast<std::uint32_t>(status.code()));
  writer.PutString(status.message());
}

Status DecodeStatus(PayloadReader& reader) {
  auto code = reader.GetU32();
  if (!code.ok()) {
    return code.status();
  }
  auto message = reader.GetString();
  if (!message.ok()) {
    return message.status();
  }
  if (code.value() > static_cast<std::uint32_t>(ErrorCode::kFailedPrecondition)) {
    return Status(ErrorCode::kInvalidArgument, "bad status code on the wire");
  }
  return Status(static_cast<ErrorCode>(code.value()), message.value());
}

// Responses are (status, body...).  Handlers encode OK + body, or an
// application error status with no body; the client decodes the status
// first.  A non-OK handler *return* is a transport-level failure.

ControllerEndpoint::ControllerEndpoint(ShardedControlPlane* plane, rdma::RpcServer* server)
    : plane_(plane) {
  server->RegisterMethod(
      kMethodGotoZombie, [this](const Payload& request, PayloadWriter& out) -> Status {
        PayloadReader reader(request);
        auto host = reader.GetU32();
        auto count = reader.GetU32();
        if (!host.ok() || !count.ok()) {
          return Status(ErrorCode::kInvalidArgument, "malformed GS_goto_zombie");
        }
        std::vector<BufferGrant> grants;
        grants.reserve(count.value());
        for (std::uint32_t i = 0; i < count.value(); ++i) {
          auto grant = DecodeGrant(reader);
          if (!grant.ok()) {
            return grant.status();
          }
          grants.push_back(grant.value());
        }
        auto ids = plane_->GsGotoZombie(host.value(), grants);
        if (!ids.ok()) {
          EncodeStatus(out, ids.status());
          return Status::Ok();
        }
        EncodeStatus(out, Status::Ok());
        out.PutU32(static_cast<std::uint32_t>(ids.value().size()));
        for (BufferId id : ids.value()) {
          out.PutU64(id);
        }
        return Status::Ok();
      });

  server->RegisterMethod(
      kMethodReclaim, [this](const Payload& request, PayloadWriter& out) -> Status {
        PayloadReader reader(request);
        auto host = reader.GetU32();
        auto nb = reader.GetU64();
        if (!host.ok() || !nb.ok()) {
          return Status(ErrorCode::kInvalidArgument, "malformed GS_reclaim");
        }
        auto ids = plane_->GsReclaim(host.value(), static_cast<std::size_t>(nb.value()));
        if (!ids.ok()) {
          EncodeStatus(out, ids.status());
          return Status::Ok();
        }
        EncodeStatus(out, Status::Ok());
        out.PutU32(static_cast<std::uint32_t>(ids.value().size()));
        for (BufferId id : ids.value()) {
          out.PutU64(id);
        }
        return Status::Ok();
      });

  auto alloc_handler = [this](const Payload& request, PayloadWriter& out,
                              bool guaranteed) -> Status {
    PayloadReader reader(request);
    auto user = reader.GetU32();
    auto size = reader.GetU64();
    if (!user.ok() || !size.ok()) {
      return Status(ErrorCode::kInvalidArgument, "malformed GS_alloc");
    }
    auto grants = guaranteed ? plane_->GsAllocExt(user.value(), size.value())
                             : plane_->GsAllocSwap(user.value(), size.value());
    if (!grants.ok()) {
      EncodeStatus(out, grants.status());
      return Status::Ok();
    }
    EncodeStatus(out, Status::Ok());
    out.PutU32(static_cast<std::uint32_t>(grants.value().size()));
    for (const auto& grant : grants.value()) {
      EncodeGrant(out, grant);
    }
    return Status::Ok();
  };
  server->RegisterMethod(kMethodAllocExt,
                         [alloc_handler](const Payload& request, PayloadWriter& out) {
                           return alloc_handler(request, out, /*guaranteed=*/true);
                         });
  server->RegisterMethod(kMethodAllocSwap,
                         [alloc_handler](const Payload& request, PayloadWriter& out) {
                           return alloc_handler(request, out, /*guaranteed=*/false);
                         });

  server->RegisterMethod(
      kMethodRelease, [this](const Payload& request, PayloadWriter& out) -> Status {
        PayloadReader reader(request);
        auto user = reader.GetU32();
        auto count = reader.GetU32();
        if (!user.ok() || !count.ok()) {
          return Status(ErrorCode::kInvalidArgument, "malformed GS_release");
        }
        std::vector<BufferId> ids;
        ids.reserve(count.value());
        for (std::uint32_t i = 0; i < count.value(); ++i) {
          auto id = reader.GetU64();
          if (!id.ok()) {
            return id.status();
          }
          ids.push_back(id.value());
        }
        EncodeStatus(out, plane_->GsRelease(user.value(), ids));
        return Status::Ok();
      });

  server->RegisterMethod(kMethodGetLruZombie,
                         [this](const Payload&, PayloadWriter& out) -> Status {
                           auto lru = plane_->GsGetLruZombie();
                           if (!lru.ok()) {
                             EncodeStatus(out, lru.status());
                             return Status::Ok();
                           }
                           EncodeStatus(out, Status::Ok());
                           out.PutU32(lru.value());
                           return Status::Ok();
                         });
}

Status ControllerClient::Call(const std::string& method) {
  return router_->CallInto(self_, controller_node_, method, request_buf_, response_buf_,
                           &last_cost_);
}

namespace {

// Decodes the (status, ...) response header; returns the reader positioned
// at the body on success.
Status DecodeHeader(PayloadReader& reader) { return DecodeStatus(reader); }

}  // namespace

Result<std::vector<BufferId>> ControllerClient::GotoZombie(
    ServerId host, const std::vector<BufferGrant>& buffers) {
  request_writer_.Reset();
  request_writer_.PutU32(host);
  request_writer_.PutU32(static_cast<std::uint32_t>(buffers.size()));
  for (const auto& grant : buffers) {
    EncodeGrant(request_writer_, grant);
  }
  Status call = Call(kMethodGotoZombie);
  if (!call.ok()) {
    return call;
  }
  PayloadReader reader(response_buf_);
  Status status = DecodeHeader(reader);
  if (!status.ok()) {
    return status;
  }
  auto count = reader.GetU32();
  if (!count.ok()) {
    return count.status();
  }
  std::vector<BufferId> ids;
  ids.reserve(count.value());
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    auto id = reader.GetU64();
    if (!id.ok()) {
      return id.status();
    }
    ids.push_back(id.value());
  }
  return ids;
}

Result<std::vector<BufferId>> ControllerClient::Reclaim(ServerId host,
                                                        std::uint64_t nb_buffers) {
  request_writer_.Reset();
  request_writer_.PutU32(host);
  request_writer_.PutU64(nb_buffers);
  Status call = Call(kMethodReclaim);
  if (!call.ok()) {
    return call;
  }
  PayloadReader reader(response_buf_);
  Status status = DecodeHeader(reader);
  if (!status.ok()) {
    return status;
  }
  auto count = reader.GetU32();
  if (!count.ok()) {
    return count.status();
  }
  std::vector<BufferId> ids;
  ids.reserve(count.value());
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    auto id = reader.GetU64();
    if (!id.ok()) {
      return id.status();
    }
    ids.push_back(id.value());
  }
  return ids;
}

namespace {

Result<std::vector<BufferGrant>> DecodeGrantList(const Payload& response) {
  PayloadReader reader(response);
  Status status = DecodeHeader(reader);
  if (!status.ok()) {
    return status;
  }
  auto count = reader.GetU32();
  if (!count.ok()) {
    return count.status();
  }
  std::vector<BufferGrant> grants;
  grants.reserve(count.value());
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    auto grant = DecodeGrant(reader);
    if (!grant.ok()) {
      return grant.status();
    }
    grants.push_back(grant.value());
  }
  return grants;
}

}  // namespace

Result<std::vector<BufferGrant>> ControllerClient::AllocExt(ServerId user, Bytes mem_size) {
  request_writer_.Reset();
  request_writer_.PutU32(user);
  request_writer_.PutU64(mem_size);
  Status call = Call(kMethodAllocExt);
  if (!call.ok()) {
    return call;
  }
  return DecodeGrantList(response_buf_);
}

Result<std::vector<BufferGrant>> ControllerClient::AllocSwap(ServerId user, Bytes mem_size) {
  request_writer_.Reset();
  request_writer_.PutU32(user);
  request_writer_.PutU64(mem_size);
  Status call = Call(kMethodAllocSwap);
  if (!call.ok()) {
    return call;
  }
  return DecodeGrantList(response_buf_);
}

Status ControllerClient::Release(ServerId user, const std::vector<BufferId>& buffers) {
  request_writer_.Reset();
  request_writer_.PutU32(user);
  request_writer_.PutU32(static_cast<std::uint32_t>(buffers.size()));
  for (BufferId id : buffers) {
    request_writer_.PutU64(id);
  }
  Status call = Call(kMethodRelease);
  if (!call.ok()) {
    return call;
  }
  PayloadReader reader(response_buf_);
  return DecodeHeader(reader);
}

Result<ServerId> ControllerClient::GetLruZombie() {
  request_writer_.Reset();
  Status call = Call(kMethodGetLruZombie);
  if (!call.ok()) {
    return call;
  }
  PayloadReader reader(response_buf_);
  Status status = DecodeHeader(reader);
  if (!status.ok()) {
    return status;
  }
  auto id = reader.GetU32();
  if (!id.ok()) {
    return id.status();
  }
  return id.value();
}

}  // namespace zombie::remotemem
