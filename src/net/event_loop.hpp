// Real-time runtime, part 1: epoll event loop + monotonic-clock timers.
//
// The net runtime's counterpart of sim::Scheduler: a single-threaded
// reactor that is both the runtime::Clock (microseconds of CLOCK_MONOTONIC
// since loop construction — same "µs since origin" convention as simulated
// time) and the runtime::TimerService (one-shot timers ordered by
// (deadline, insertion-sequence), exactly the scheduler's tie-break, fired
// from the loop thread between epoll waits).
//
// Everything runs on the one thread that called run(): fd callbacks, timer
// callbacks, posted closures. The only cross-thread entry points are
// post() (mutex-protected queue + eventfd wake) and request_stop()
// (async-signal-safe: an atomic flag plus an eventfd write), which is how
// signal handlers and benchmark driver threads talk to the loop.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/time.hpp"
#include "obs/metrics.hpp"
#include "runtime/runtime.hpp"

namespace evs::net {

class EventLoop final : public runtime::Clock, public runtime::TimerService {
 public:
  EventLoop();
  ~EventLoop() override;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // runtime::Clock: monotonic microseconds since this loop was created.
  SimTime now() const override;

  // runtime::TimerService.
  runtime::TimerId set_timer(SimDuration delay,
                             std::function<void()> fn) override;
  void cancel_timer(runtime::TimerId id) override;

  /// Registers a level-triggered read interest; `on_readable` must drain
  /// the fd (read until EAGAIN) or it will be called again immediately.
  void add_fd(int fd, std::function<void()> on_readable);
  void remove_fd(int fd);

  /// Adds (non-empty fn) or clears (empty fn) level-triggered write
  /// interest on an fd previously registered with add_fd; used by the
  /// admin plane to finish responses that did not fit the socket buffer.
  void set_writable(int fd, std::function<void()> on_writable);

  /// Runs until stop()/request_stop(). Returns the number of timer +
  /// readable callbacks fired.
  std::size_t run();

  /// Runs for at most `d` microseconds of wall time, then returns (used by
  /// in-process tests and benches that interleave loop work with asserts).
  std::size_t run_for(SimDuration d);

  /// Stops run() from a callback on the loop thread.
  void stop() { stop_.store(true, std::memory_order_relaxed); }

  /// Async-signal-safe stop: may be called from a signal handler or any
  /// other thread; wakes the loop if it is blocked in epoll_pwait2.
  void request_stop();

  /// Enqueues `fn` to run on the loop thread; safe from any thread.
  void post(std::function<void()> fn);

  using FlushHookId = std::uint64_t;

  /// Registers a hook that runs on the loop thread at the top of every
  /// step (before the loop blocks in epoll_pwait2) and once more after the
  /// final drain when run()/run_for() returns. Transports use this to
  /// flush their per-iteration send queues, so everything queued by the
  /// previous step's callbacks hits the wire before the loop sleeps.
  /// Hooks must not add or remove hooks from inside a hook.
  FlushHookId add_flush_hook(std::function<void()> fn);
  void remove_flush_hook(FlushHookId id);

  std::size_t pending_timers() const { return timers_.size(); }
  bool stopped() const { return stop_.load(std::memory_order_relaxed); }

  /// How late each fired timer ran, in µs (fire time minus deadline): the
  /// loop's own lag, from blocking callbacks, fsyncs or a descheduled
  /// thread. Exported as net.loop_late_us.
  const obs::Histogram& late_us() const { return late_us_; }

 private:
  /// One pass: waits for fds/timers (capped at `max_wait` µs) and fires
  /// whatever is due. Returns callbacks fired.
  std::size_t step(SimDuration max_wait);
  std::size_t fire_due_timers();
  void run_flush_hooks();
  void drain_wakeup();
  void drain_posted();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  SimTime origin_ = 0;  // CLOCK_MONOTONIC µs at construction

  runtime::TimerId next_timer_id_ = 1;
  // Pending timers in firing order. Ids rise in set order, so keying on
  // (deadline, id) breaks deadline ties by insertion, as sim::Scheduler
  // does; deadlines_ finds a timer's key for cancel_timer.
  std::map<std::pair<SimTime, runtime::TimerId>, std::function<void()>>
      timers_;
  std::unordered_map<runtime::TimerId, SimTime> deadlines_;
  obs::Histogram late_us_;

  std::vector<std::pair<FlushHookId, std::function<void()>>> flush_hooks_;
  FlushHookId next_flush_hook_id_ = 1;

  struct FdHandlers {
    std::function<void()> on_readable;
    std::function<void()> on_writable;  // empty: no write interest
    /// Registration generation: stamped by add_fd, compared against a
    /// snapshot taken right after epoll_pwait2 so a stale event for a
    /// closed fd can never dispatch to a new connection that reused the
    /// fd number within the same batch.
    std::uint64_t gen = 0;
  };
  std::unordered_map<int, FdHandlers> fd_handlers_;
  std::uint64_t next_fd_gen_ = 1;

  std::atomic<bool> stop_{false};
  std::mutex posted_mutex_;
  std::vector<std::function<void()>> posted_;
};

}  // namespace evs::net
