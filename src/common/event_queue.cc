#include "src/common/event_queue.h"

#include <algorithm>

namespace zombie {

EventQueue::EventId EventQueue::ScheduleAt(SimTime when, Callback cb) {
  if (when < clock_.now()) {
    when = clock_.now();
  }
  const EventId id = next_id_++;
  heap_.push_back(Event{when, next_seq_++, id, std::move(cb)});
  std::push_heap(heap_.begin(), heap_.end(), Later());
  pending_ids_.insert(id);
  return id;
}

bool EventQueue::Cancel(EventId id) {
  // Only genuinely pending events can be cancelled: already-run, unknown
  // and doubly-cancelled ids are all rejected, keeping counts exact.
  if (!pending_ids_.erase(id)) {
    return false;
  }
  cancelled_.insert(id);
  return true;
}

EventQueue::Event EventQueue::PopTop() {
  std::pop_heap(heap_.begin(), heap_.end(), Later());
  Event ev = std::move(heap_.back());
  heap_.pop_back();
  return ev;
}

bool EventQueue::PopAndRun() {
  while (!heap_.empty()) {
    Event ev = PopTop();
    if (cancelled_.erase(ev.id) > 0) {
      continue;  // skip cancelled event
    }
    clock_.AdvanceTo(ev.when);
    pending_ids_.erase(ev.id);
    ev.cb();
    return true;
  }
  return false;
}

std::size_t EventQueue::Run() {
  std::size_t n = 0;
  while (PopAndRun()) {
    ++n;
  }
  return n;
}

bool EventQueue::Step() { return PopAndRun(); }

SimTime EventQueue::NextEventTime() {
  while (!heap_.empty() && cancelled_.erase(heap_.front().id) > 0) {
    PopTop();
  }
  return heap_.empty() ? kNever : heap_.front().when;
}

void EventQueue::AdvanceTo(SimTime when) {
  if (clock_.now() < when) {
    clock_.AdvanceTo(when);
  }
}

}  // namespace zombie
