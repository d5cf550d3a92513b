// The one driver that fans a frame's tiles across worker threads.
//
// Tile costs are far from uniform (a few central tiles can hold half of a
// frame's splat-pixel pairs), so handing each worker a fixed share of tile
// ids leaves most workers idle while one finishes. Instead every worker
// claims the next unprocessed tile from a shared atomic cursor until none
// are left. Which worker renders which tile varies from run to run; callers
// keep per-worker state indexed by the worker argument and merge it with
// order-independent sums, so results stay bit-identical for any worker
// count.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/parallel_for.hpp"

namespace gaurast::pipeline {

/// Calls body(worker, tile) exactly once for every tile in [0, tiles).
/// Runs min(workers, tiles) workers, each tile claimed dynamically; worker
/// indices are < that count. With at most one worker the tiles run in order
/// on the calling thread (no thread is spawned, so the caller's
/// thread_local state is the one used). Bodies must not throw (see
/// common::parallel_for_workers).
template <typename Body>
void for_each_tile(std::uint32_t tiles, std::size_t workers, Body&& body) {
  workers = std::min<std::size_t>(workers, tiles);
  if (workers <= 1) {
    for (std::uint32_t t = 0; t < tiles; ++t) body(std::size_t{0}, t);
    return;
  }
  std::atomic<std::uint32_t> next{0};
  common::parallel_for_workers(workers, [&](std::size_t worker) {
    for (std::uint32_t t = next.fetch_add(1, std::memory_order_relaxed);
         t < tiles; t = next.fetch_add(1, std::memory_order_relaxed)) {
      body(worker, t);
    }
  });
}

}  // namespace gaurast::pipeline
