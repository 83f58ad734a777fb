// Named metric registry.
//
// Modules record into dotted names ("net.app.bytes", "recovery.gather.restarts").
// The registry is the bridge between protocol code and the experiment
// harness: benches read whichever names a scenario produced and print the
// paper's tables from them. Names are created on first use; reads of a
// never-written name return zero so table code stays branch-free.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "metrics/counters.hpp"

namespace rr::metrics {

class Registry {
 public:
  /// Counter cell for `name` (created zeroed on first use). Cells are
  /// std::map nodes, so a returned reference stays valid until reset(),
  /// which only tests call: hot paths keep one through CounterHandle.
  Counter& counter(const std::string& name);
  /// Accumulator cell for `name` (created empty on first use).
  Accumulator& accum(const std::string& name);
  /// Histogram cell for `name` (created empty on first use).
  Histogram& histogram(const std::string& name);

  [[nodiscard]] std::uint64_t counter_value(const std::string& name) const;
  /// Lookup without creating: nullptr when `name` was never written. One
  /// accessor per cell kind, all symmetric.
  [[nodiscard]] const Counter* find_counter(const std::string& name) const;
  [[nodiscard]] const Accumulator* find_accum(const std::string& name) const;
  [[nodiscard]] const Histogram* find_histogram(const std::string& name) const;

  /// Names in sorted order, for dump/diff in tests.
  [[nodiscard]] std::vector<std::string> counter_names() const;
  [[nodiscard]] std::vector<std::string> accum_names() const;
  [[nodiscard]] std::vector<std::string> histogram_names() const;

  void reset();

  /// Multi-line human-readable dump (sorted by name).
  [[nodiscard]] std::string dump() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Accumulator> accums_;
  std::map<std::string, Histogram> histograms_;
};

/// A counter for a per-message path: the name is looked up on the first
/// add() and the cell kept, so later adds skip the string-keyed lookup.
/// Resolving lazily keeps construction free and creates the cell exactly
/// when Registry::counter would have.
class CounterHandle {
 public:
  CounterHandle(Registry& registry, const char* name) : registry_(&registry), name_(name) {}

  void add(std::uint64_t n = 1) {
    if (cell_ == nullptr) cell_ = &registry_->counter(name_);
    cell_->add(n);
  }

 private:
  Registry* registry_;
  const char* name_;
  Counter* cell_{nullptr};
};

}  // namespace rr::metrics
