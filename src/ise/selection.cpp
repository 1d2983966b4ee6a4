#include "ise/selection.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace jitise::ise {

bool selection_eligible(const ScoredCandidate& sc,
                        const SelectConfig& config) noexcept {
  // Written as !(x > 0) so a NaN estimate fails too: a degenerate score must
  // never be selected even under min_saving = 0.
  if (!(sc.cycles_saved_total > 0.0)) return false;
  if (sc.cycles_saved_total < config.min_saving) return false;
  if (config.require_single_output && !sc.candidate.single_output()) return false;
  return sc.area_slices <= config.area_budget_slices;
}

namespace {

bool eligible(const ScoredCandidate& sc, const SelectConfig& config) {
  return selection_eligible(sc, config);
}

double density(const ScoredCandidate& sc) {
  // Non-positive savings sort to the very end (and are ineligible anyway);
  // guarding here keeps the order total even for degenerate scores.
  if (!(sc.cycles_saved_total > 0.0)) return 0.0;
  return sc.cycles_saved_total / std::max(1.0, sc.area_slices);
}

}  // namespace

Selection select_greedy(std::span<const ScoredCandidate> scored,
                        const SelectConfig& config) {
  std::vector<std::size_t> order(scored.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double da = density(scored[a]);
    const double db = density(scored[b]);
    if (da != db) return da > db;
    return a < b;  // deterministic tie-break
  });
  // Walk the density order, taking every eligible candidate that still fits
  // the area budget and the slot cap.
  Selection sel;
  for (std::size_t i : order) {
    if (sel.chosen.size() >= config.max_instructions) break;
    const ScoredCandidate& sc = scored[i];
    if (!eligible(sc, config)) continue;
    if (sel.total_area + sc.area_slices > config.area_budget_slices) continue;
    sel.chosen.push_back(i);
    sel.total_saving += sc.cycles_saved_total;
    sel.total_area += sc.area_slices;
  }
  std::sort(sel.chosen.begin(), sel.chosen.end());
  return sel;
}

Selection select_knapsack(std::span<const ScoredCandidate> scored,
                          const SelectConfig& config,
                          double area_granularity) {
  const auto capacity = static_cast<std::size_t>(
      std::floor(config.area_budget_slices / area_granularity));
  std::vector<std::size_t> items;
  for (std::size_t i = 0; i < scored.size(); ++i)
    if (eligible(scored[i], config)) items.push_back(i);

  // The FCM slot cap is a second knapsack dimension. When it cannot bind
  // (more slots than items) the slot axis collapses to one plane and the DP
  // below degenerates to the classic capacity-only table; when it can bind,
  // the explicit slot axis keeps the result the true constrained optimum —
  // the old code discarded the DP answer and fell back to greedy here,
  // silently giving up the optimality the ablation exists to measure.
  const std::size_t slots = std::min(config.max_instructions, items.size());
  if (slots == 0) return Selection{};

  // Stage-indexed DP table: dp[k][c][s] is the best saving using the first k
  // items within discretized capacity c and at most s slots. The explicit
  // table makes backtrack correctness a local property (a skipped item
  // copies its predecessor cell bit-for-bit; a taken one strictly improves
  // it), asserted against a brute-force optimum in ise_test.
  const std::size_t planes = slots + 1;
  const auto at = [&](std::size_t k, std::size_t c,
                      std::size_t s) -> std::size_t {
    return (k * (capacity + 1) + c) * planes + s;
  };
  std::vector<double> dp((items.size() + 1) * (capacity + 1) * planes, 0.0);
  for (std::size_t k = 0; k < items.size(); ++k) {
    const ScoredCandidate& sc = scored[items[k]];
    const auto w = static_cast<std::size_t>(
        std::ceil(sc.area_slices / area_granularity));
    for (std::size_t c = 0; c <= capacity; ++c) {
      for (std::size_t s = 0; s <= slots; ++s) {
        double best = dp[at(k, c, s)];
        if (c >= w && s >= 1) {
          const double with = dp[at(k, c - w, s - 1)] + sc.cycles_saved_total;
          if (with > best) best = with;
        }
        dp[at(k + 1, c, s)] = best;
      }
    }
  }

  Selection sel;
  std::size_t c = capacity;
  std::size_t s = slots;
  for (std::size_t k = items.size(); k-- > 0;) {
    // Item k was taken at (c, s) exactly when the take branch strictly won
    // above (skipped items copy dp[k][c][s] bit-for-bit).
    if (dp[at(k + 1, c, s)] <= dp[at(k, c, s)]) continue;
    const ScoredCandidate& sc = scored[items[k]];
    sel.chosen.push_back(items[k]);
    sel.total_saving += sc.cycles_saved_total;
    sel.total_area += sc.area_slices;
    c -= static_cast<std::size_t>(std::ceil(sc.area_slices / area_granularity));
    --s;
  }
  std::sort(sel.chosen.begin(), sel.chosen.end());
  return sel;
}

}  // namespace jitise::ise
