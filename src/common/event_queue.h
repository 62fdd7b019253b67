// A deterministic discrete-event queue in simulated time.
//
// Users: the serving daemon (src/serve/daemon.cc) keeps here only the events
// its run schedules (admission-gate verdicts, queue timeouts, zombie-wake
// completions) and streams its request timeline and rack ticks beside the
// queue, advancing the clock itself (AdvanceTo) whenever an outside item
// comes first; the perfbench serve replay schedules its whole timeline and
// every tick up front and drains them with Run.
//
// Determinism: events at the same timestamp fire in insertion order
// (a strictly increasing sequence number breaks ties), so a seeded run is
// exactly reproducible.
#ifndef ZOMBIELAND_SRC_COMMON_EVENT_QUEUE_H_
#define ZOMBIELAND_SRC_COMMON_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <limits>
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
  // NextEventTime() of a queue with no live event.
  static constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

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
  // Runs at most one event.  Returns true if an event ran.
  bool Step();

  // Time of the earliest live event, or kNever.  Drops cancelled entries
  // from the top of the heap on the way.
  SimTime NextEventTime();
  // Moves the clock to `when` for work driven from outside the queue (a
  // `when` in the past leaves it where it is).  Events scheduled afterwards
  // at `when` keep the usual tie rules.  The caller runs every event due
  // before `when` first.
  void AdvanceTo(SimTime when);

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
