// The process-wide fork-join pool — the project's only sanctioned way to
// run short-lived parallelism inside one frame or one scene load.
//
// The pipeline kernels (Step 1 projection, Step-2 tile binning, Step-3 tile
// raster) and the scene loaders (SH fill, quantize, dequantize) split their
// work into chunks and hand them to parallel_for_workers. The chunks run on
// the calling thread and on one long-lived pool of
// hardware_concurrency() - 1 threads, started on first use and shared by
// every caller in the process, so no call spawns a thread.
// tools/lint_invariants.py forbids naked std::thread outside src/common and
// src/runtime, so kernels use this helper instead. Serving concurrency
// belongs on runtime::ThreadPool, whose queues are bounded and whose
// callers never do the work themselves.
#pragma once

#include <cstddef>
#include <functional>

namespace gaurast::common {

/// Threads one parallel_for_workers call can keep busy at once: the pool's
/// threads plus the caller, i.e. max(1, hardware_concurrency()). Callers
/// size their chunk counts from this.
std::size_t parallel_width();

/// Chunks for `items` independent items: one per `min_items_per_chunk`
/// items (at least one), and at most parallel_width().
std::size_t chunks_for(std::size_t items, std::size_t min_items_per_chunk);

/// Runs body(chunk) exactly once for every chunk index in [0, chunks) and
/// returns once all have finished. The caller claims chunks too, from the
/// call's atomic cursor; idle pool threads claim the others. When no chunk
/// is left to claim, the caller waits only for chunks other threads have
/// already claimed, so a pool thread that never gets a CPU costs
/// parallelism, not a stall. Which thread runs which chunk varies from call
/// to call: keep per-chunk state indexed by the chunk argument.
///
/// A lone chunk, and any call made from a pool thread (a nested call), runs
/// every chunk in order on the calling thread; with a lone chunk an
/// exception from `body` reaches the caller. Otherwise an exception escaping
/// `body` terminates the process: keep bodies nonthrowing.
void parallel_for_workers(std::size_t chunks,
                          const std::function<void(std::size_t)>& body);

}  // namespace gaurast::common
