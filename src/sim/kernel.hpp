// Cycle-driven simulation kernel.
//
// The GauRast detailed simulator is built from ClockedModules advanced in
// lockstep by a SimKernel. Each cycle has two phases, mirroring a
// synchronous-digital two-phase evaluation:
//   - evaluate(): combinational work; modules read peers' *registered* state
//     and compute next-state.
//   - commit():   registered state update; next-state becomes visible.
// This avoids intra-cycle ordering artifacts between modules.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace gaurast::sim {

using Cycle = std::uint64_t;

/// Interface for anything advanced by the kernel.
class ClockedModule {
 public:
  virtual ~ClockedModule() = default;

  /// Combinational phase; `now` is the cycle being computed.
  virtual void evaluate(Cycle now) = 0;

  /// State-update phase.
  virtual void commit(Cycle now) = 0;

  /// True when the module has no pending work; the kernel stops when every
  /// module is idle.
  virtual bool idle() const = 0;

  /// Debug name for diagnostics.
  virtual std::string name() const = 0;
};

/// Lockstep kernel. Modules are evaluated in registration order, then all
/// committed. Registration order must therefore not affect functional
/// results — the two-phase discipline enforces that as long as modules only
/// read committed state in evaluate().
class SimKernel {
 public:
  /// Registers a module (not owned). Must outlive the kernel run.
  void add_module(ClockedModule* module) {
    GAURAST_CHECK(module != nullptr);
    modules_.push_back(module);
  }

  /// Runs until all modules are idle or `max_cycles` elapse.
  /// Returns the number of cycles simulated.
  Cycle run(Cycle max_cycles);

  /// Advances exactly one cycle.
  void step();

  Cycle now() const { return now_; }
  bool all_idle() const;

 private:
  std::vector<ClockedModule*> modules_;
  Cycle now_ = 0;
};

}  // namespace gaurast::sim
