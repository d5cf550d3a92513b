// Fork-join worker spawning — the project's only sanctioned way to run
// short-lived intra-frame parallelism outside the runtime's ThreadPool.
//
// The pipeline kernels (Step-2 parallel binning, Step-3 tile raster) fan a
// frame's work across N worker threads that live exactly as long as the
// call; tools/lint_invariants.py forbids naked std::thread outside
// src/common and src/runtime, so they use this helper instead. Long-lived
// concurrency (serving) belongs on runtime::ThreadPool, whose queues are
// bounded and whose shared state is lock-annotated.
#pragma once

#include <cstddef>
#include <functional>

namespace gaurast::common {

/// Runs body(worker) for every worker index in [0, workers) on `workers`
/// freshly spawned threads and joins them all before returning. Every
/// worker gets its own thread (worker 0 included), so thread_local state in
/// `body` — e.g. pipeline::RasterScratch — behaves identically for all
/// indices. An exception escaping `body` terminates the process, exactly
/// like an exception escaping a raw std::thread: keep bodies nonthrowing.
void parallel_for_workers(std::size_t workers,
                          const std::function<void(std::size_t)>& body);

}  // namespace gaurast::common
