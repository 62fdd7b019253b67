// A deterministic discrete-event queue driving the rack- and DC-level
// simulations (heartbeats, consolidation rounds, task arrivals, RDMA
// completions).
//
// Determinism: events at the same timestamp fire in insertion order
// (a strictly increasing sequence number breaks ties), so a seeded run is
// exactly reproducible.
#ifndef ZOMBIELAND_SRC_COMMON_EVENT_QUEUE_H_
#define ZOMBIELAND_SRC_COMMON_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/sim_clock.h"
#include "src/common/units.h"

namespace zombie {

class EventQueue {
 public:
  using Callback = std::function<void()>;
  using EventId = std::uint64_t;

  EventQueue() = default;

  SimTime now() const { return clock_.now(); }
  const SimClock& clock() const { return clock_; }

  // Schedules `cb` to run at absolute simulated time `when` (clamped to now).
  EventId ScheduleAt(SimTime when, Callback cb);
  // Schedules `cb` to run `delay` after the current time.
  EventId ScheduleAfter(Duration delay, Callback cb) {
    return ScheduleAt(clock_.now() + (delay < 0 ? 0 : delay), std::move(cb));
  }

  // Cancels a pending event.  Returns false if it already ran or is unknown.
  bool Cancel(EventId id);

  // Runs events until the queue drains.  Returns the number of events run.
  std::size_t Run();
  // Runs events with timestamp <= deadline, then advances the clock to
  // `deadline` (even if idle).  Returns the number of events run.
  std::size_t RunUntil(SimTime deadline);
  // Runs at most one event.  Returns true if an event ran.
  bool Step();

  bool empty() const { return pending_ids_.empty(); }
  std::size_t pending() const { return pending_ids_.size(); }

 private:
  struct Event {
    SimTime when;
    std::uint64_t seq;
    EventId id;
    Callback cb;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };

  // Moves the earliest event out of the heap.
  Event PopTop();
  bool PopAndRun();

  SimClock clock_;
  std::vector<Event> heap_;  // a binary heap under Later: front() fires next
  std::uint64_t next_seq_ = 0;
  EventId next_id_ = 1;
  std::unordered_set<EventId> pending_ids_;
  std::unordered_set<EventId> cancelled_;
};

}  // namespace zombie

#endif  // ZOMBIELAND_SRC_COMMON_EVENT_QUEUE_H_
