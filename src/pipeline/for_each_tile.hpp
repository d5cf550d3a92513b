// The one driver that fans a frame's tiles across the fork-join pool.
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
/// Runs min(workers, tiles) workers as common::parallel_for_workers chunks
/// on the caller and the pool, each tile claimed dynamically; worker
/// indices are < that count, and no two threads run one worker index at
/// once. A lone worker runs the tiles in order on the calling thread.
/// Bodies must not throw.
template <typename Body>
void for_each_tile(std::uint32_t tiles, std::size_t workers, Body&& body) {
  workers = std::min<std::size_t>(workers, tiles);
  std::atomic<std::uint32_t> next{0};
  common::parallel_for_workers(workers, [&](std::size_t worker) {
    for (std::uint32_t t = next.fetch_add(1, std::memory_order_relaxed);
         t < tiles; t = next.fetch_add(1, std::memory_order_relaxed)) {
      body(worker, t);
    }
  });
}

}  // namespace gaurast::pipeline
