#include "common/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <thread>
#include <vector>

#include "common/mutex.hpp"

namespace gaurast::common {

namespace {

/// Set on the pool's own threads: their nested calls run inline.
thread_local bool t_pool_thread = false;

/// One parallel_for_workers call in flight. It lives on the caller's stack,
/// so a pool thread touches it only while it sits on the pool's queue or
/// while the thread is counted in `helping`; the caller unqueues it and
/// waits for `helping` to drain before returning.
struct Call {
  Call(const std::function<void(std::size_t)>& body, std::size_t chunks)
      : body(body), chunks(chunks) {}

  std::size_t claim() { return next.fetch_add(1, std::memory_order_relaxed); }

  /// Runs `chunk`, already claimed, then claims and runs chunks until none
  /// is left.
  void run_from(std::size_t chunk) {
    for (; chunk < chunks; chunk = claim()) body(chunk);
  }

  const std::function<void(std::size_t)>& body;
  const std::size_t chunks;
  std::atomic<std::size_t> next{0};

  Mutex mutex;
  CondVar drained;  ///< notified when `helping` falls to zero
  /// Pool threads that entered the call with a claimed chunk and have not
  /// left it yet.
  std::size_t helping GAURAST_GUARDED_BY(mutex) = 0;
};

class Pool {
 public:
  explicit Pool(std::size_t threads) {
    threads_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
      threads_.emplace_back([this] { work(); });
    }
  }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  // noexcept: pool threads may still be running chunks of `call`, so an
  // exception must not unwind this frame.
  void run(std::size_t chunks,
           const std::function<void(std::size_t)>& body) noexcept {
    Call call(body, chunks);
    {
      MutexLock lock(mutex_);
      calls_.push_back(&call);
    }
    // Wake one pool thread per chunk beyond the caller's own.
    const std::size_t helpers = std::min(chunks - 1, threads_.size());
    for (std::size_t i = 0; i < helpers; ++i) posted_.notify_one();

    call.run_from(call.claim());
    {
      MutexLock lock(mutex_);
      std::erase(calls_, &call);
    }
    MutexLock lock(call.mutex);
    while (call.helping > 0) call.drained.wait(lock);
  }

 private:
  void work() {
    t_pool_thread = true;
    for (;;) {
      Call* call = nullptr;
      std::size_t chunk = 0;
      {
        MutexLock lock(mutex_);
        for (;;) {
          while (calls_.empty()) posted_.wait(lock);
          call = calls_.front();
          chunk = call->claim();
          if (chunk < call->chunks) break;
          calls_.pop_front();  // every chunk is claimed
        }
        // Joined while the call is still queued, so its caller cannot
        // have returned.
        MutexLock call_lock(call->mutex);
        ++call->helping;
      }
      call->run_from(chunk);
      MutexLock call_lock(call->mutex);
      if (--call->helping == 0) call->drained.notify_all();
    }
  }

  Mutex mutex_;
  CondVar posted_;  ///< notified when a call is queued
  std::deque<Call*> calls_ GAURAST_GUARDED_BY(mutex_);
  std::vector<std::thread> threads_;  // last: the threads use the members above
};

Pool& pool() {
  // Never destroyed, so no static destructor joins threads that may be
  // parked at exit; the threads end with the process.
  static Pool* const instance = new Pool(parallel_width() - 1);
  return *instance;
}

}  // namespace

std::size_t parallel_width() {
  // Read once: hardware_concurrency() costs syscalls on every call.
  static const std::size_t width =
      std::max(1u, std::thread::hardware_concurrency());
  return width;
}

std::size_t chunks_for(std::size_t items, std::size_t min_items_per_chunk) {
  return std::clamp<std::size_t>(items / min_items_per_chunk, 1,
                                 parallel_width());
}

void parallel_for_workers(std::size_t chunks,
                          const std::function<void(std::size_t)>& body) {
  if (chunks <= 1 || t_pool_thread) {
    for (std::size_t chunk = 0; chunk < chunks; ++chunk) body(chunk);
    return;
  }
  pool().run(chunks, body);
}

}  // namespace gaurast::common
