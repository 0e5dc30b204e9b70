#include "net/event_loop.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <utility>

#include "common/check.hpp"

namespace evs::net {

namespace {

SimTime monotonic_us() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<SimTime>(ts.tv_sec) * 1'000'000 +
         static_cast<SimTime>(ts.tv_nsec) / 1'000;
}

}  // namespace

EventLoop::EventLoop() : origin_(monotonic_us()) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  EVS_CHECK_MSG(epoll_fd_ >= 0, "epoll_create1 failed");
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  EVS_CHECK_MSG(wake_fd_ >= 0, "eventfd failed");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  EVS_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) == 0);
}

EventLoop::~EventLoop() {
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

SimTime EventLoop::now() const { return monotonic_us() - origin_; }

runtime::TimerId EventLoop::set_timer(SimDuration delay,
                                      std::function<void()> fn) {
  EVS_CHECK(fn != nullptr);
  const runtime::TimerId id = next_timer_id_++;
  const SimTime deadline = now() + delay;
  timers_.emplace(std::pair{deadline, id}, std::move(fn));
  deadlines_.emplace(id, deadline);
  return id;
}

void EventLoop::cancel_timer(runtime::TimerId id) {
  const auto it = deadlines_.find(id);
  if (it == deadlines_.end()) return;  // already fired or cancelled
  timers_.erase({it->second, id});
  deadlines_.erase(it);
}

EventLoop::FlushHookId EventLoop::add_flush_hook(std::function<void()> fn) {
  EVS_CHECK(fn != nullptr);
  const FlushHookId id = next_flush_hook_id_++;
  flush_hooks_.emplace_back(id, std::move(fn));
  return id;
}

void EventLoop::remove_flush_hook(FlushHookId id) {
  std::erase_if(flush_hooks_,
                [id](const auto& hook) { return hook.first == id; });
}

void EventLoop::run_flush_hooks() {
  for (auto& [id, fn] : flush_hooks_) fn();
}

void EventLoop::add_fd(int fd, std::function<void()> on_readable) {
  EVS_CHECK(on_readable != nullptr);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  EVS_CHECK_MSG(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0,
                "epoll_ctl ADD failed");
  fd_handlers_.emplace(fd, FdHandlers{std::move(on_readable), {}, next_fd_gen_++});
}

void EventLoop::set_writable(int fd, std::function<void()> on_writable) {
  const auto it = fd_handlers_.find(fd);
  EVS_CHECK_MSG(it != fd_handlers_.end(), "set_writable on unknown fd");
  it->second.on_writable = std::move(on_writable);
  epoll_event ev{};
  ev.events = it->second.on_writable ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
  ev.data.fd = fd;
  EVS_CHECK_MSG(::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) == 0,
                "epoll_ctl MOD failed");
}

void EventLoop::remove_fd(int fd) {
  if (fd_handlers_.erase(fd) == 0) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

void EventLoop::request_stop() {
  stop_.store(true, std::memory_order_relaxed);
  // Wake a blocked epoll_wait. write() on an eventfd is async-signal-safe;
  // the result is ignored deliberately (the counter saturating is fine).
  const std::uint64_t one = 1;
  [[maybe_unused]] const auto n = ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::post(std::function<void()> fn) {
  EVS_CHECK(fn != nullptr);
  {
    const std::lock_guard<std::mutex> lock(posted_mutex_);
    posted_.push_back(std::move(fn));
  }
  const std::uint64_t one = 1;
  [[maybe_unused]] const auto n = ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::drain_wakeup() {
  std::uint64_t value = 0;
  while (::read(wake_fd_, &value, sizeof(value)) > 0) {
  }
}

void EventLoop::drain_posted() {
  std::vector<std::function<void()>> batch;
  {
    const std::lock_guard<std::mutex> lock(posted_mutex_);
    batch.swap(posted_);
  }
  for (auto& fn : batch) fn();
}

std::size_t EventLoop::fire_due_timers() {
  std::size_t fired = 0;
  const SimTime t = now();
  // One entry at a time, earliest first, so a timer that an earlier
  // callback in this batch cancelled is already gone from the map.
  while (!timers_.empty() && timers_.begin()->first.first <= t) {
    auto timer = timers_.extract(timers_.begin());
    const auto [deadline, id] = timer.key();
    deadlines_.erase(id);
    late_us_.record(static_cast<double>(now() - deadline));
    timer.mapped()();
    ++fired;
  }
  return fired;
}

std::size_t EventLoop::step(SimDuration max_wait) {
  // Flush first: everything the previous step's callbacks queued (and,
  // on the first step, anything queued before run()) goes to the wire
  // before the loop blocks.
  run_flush_hooks();
  // Wait no longer than the earliest timer, the caller's budget, or a
  // 500 ms heartbeat that re-checks the stop flag even when nothing is
  // scheduled. epoll_pwait2 takes the wait to the microsecond; epoll_wait
  // would round it up to a whole millisecond and make every timer late.
  SimDuration wait = std::min<SimDuration>(max_wait, 500 * kMillisecond);
  if (!timers_.empty()) {
    const SimTime next = timers_.begin()->first.first;
    const SimTime t = now();
    wait = next <= t ? 0 : std::min<SimDuration>(wait, next - t);
  }
  const timespec timeout{static_cast<time_t>(wait / kSecond),
                         static_cast<long>(wait % kSecond) * 1000};

  epoll_event events[64];
  const int n = ::epoll_pwait2(epoll_fd_, events, 64, &timeout, nullptr);
  EVS_CHECK_MSG(n >= 0 || errno == EINTR, "epoll_pwait2 failed");
  std::size_t fired = 0;
  if (n > 0) {
    // Snapshot each ready fd's registration generation before running any
    // handler. A handler may close an fd whose event is still queued in
    // this batch, and a later handler may accept a new connection that
    // reuses the fd number; the generation mismatch then tells us the
    // queued event belongs to the dead registration, not the new one.
    std::uint64_t gens[64];
    for (int i = 0; i < n; ++i) {
      const auto it = fd_handlers_.find(events[i].data.fd);
      gens[i] = it == fd_handlers_.end() ? 0 : it->second.gen;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        drain_wakeup();
        continue;
      }
      auto it = fd_handlers_.find(fd);
      if (it == fd_handlers_.end()) continue;  // removed by an earlier handler
      if (it->second.gen != gens[i]) continue;  // fd number reused mid-batch
      if ((events[i].events & EPOLLOUT) != 0 && it->second.on_writable) {
        // Copy: the handler may clear write interest or remove the fd.
        const auto on_writable = it->second.on_writable;
        on_writable();
        ++fired;
        it = fd_handlers_.find(fd);
        if (it == fd_handlers_.end() || it->second.gen != gens[i]) continue;
      }
      if ((events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0) {
        // Copy: the handler may remove_fd(fd) from inside the call.
        const auto on_readable = it->second.on_readable;
        on_readable();
        ++fired;
      }
    }
  }
  drain_posted();
  fired += fire_due_timers();
  return fired;
}

std::size_t EventLoop::run() {
  std::size_t fired = 0;
  while (!stopped()) fired += step(500 * kMillisecond);
  // One final drain so work posted just before the stop is not lost, and
  // a final flush so its sends (and the last step's) are not stranded.
  drain_posted();
  run_flush_hooks();
  return fired;
}

std::size_t EventLoop::run_for(SimDuration d) {
  const SimTime deadline = now() + d;
  std::size_t fired = 0;
  while (!stopped()) {
    const SimTime t = now();
    if (t >= deadline) break;
    fired += step(deadline - t);
  }
  // Same final drain as run(): a cross-thread post() landing just before
  // the deadline must not be silently dropped, nor its sends stranded.
  drain_posted();
  run_flush_hooks();
  return fired;
}

}  // namespace evs::net
