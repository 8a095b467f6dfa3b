#pragma once
/// \file engine.hpp
/// Minimal discrete-event simulation engine: a clock plus an EventQueue.
/// Its only consumer is the event-driven periodic executor (des_periodic.hpp),
/// which tests and bench/micro_sim exercise. The figure simulators use the
/// lighter segment-walk primitives instead, and the composite runtime
/// (src/core/runtime.hpp) keeps its own logical clock (CompositeRuntime::tick)
/// without an event queue.

#include "sim/event_queue.hpp"

namespace abftc::sim {

class Engine {
 public:
  [[nodiscard]] double now() const noexcept { return now_; }

  /// Schedule at absolute simulated time (must be >= now()).
  EventId at(double t, EventFn fn);
  /// Schedule `dt` seconds from now (dt >= 0).
  EventId in(double dt, EventFn fn);
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Run until the queue drains or stop() is called; returns events fired.
  std::size_t run();
  /// Run events with time <= t_end, then set now() = t_end.
  std::size_t run_until(double t_end);
  void stop() noexcept { stopped_ = true; }

  [[nodiscard]] bool pending() const noexcept { return !queue_.empty(); }

 private:
  EventQueue queue_;
  double now_ = 0.0;
  bool stopped_ = false;
};

}  // namespace abftc::sim
