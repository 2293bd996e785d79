// A guided tour of the paper's lower-bound constructions (Theorems 1 and 2):
// builds the adversarial graphs, prints their anatomy, runs the matching
// upper-bound algorithms on them, and shows the forced ratios being hit
// exactly.
#include <iostream>

#include "algo/driver.hpp"
#include "analysis/ratio.hpp"
#include "lb/lower_bounds.hpp"
#include "runtime/outputs.hpp"
#include "runtime/runner.hpp"

namespace {

void tour_even(eds::port::Port d) {
  const auto inst = eds::lb::even_lower_bound(d);
  const auto& g = inst.ported.graph();
  std::cout << "--- Theorem 1, d = " << d << " ---\n";
  std::cout << "G: " << g.summary() << " (A: " << d << " nodes, B: " << d - 1
            << " nodes; S = perfect matching on A, T = K_{" << d << ","
            << d - 1 << "})\n";
  std::cout << "optimal |S| = " << inst.optimal.size()
            << ", covering multigraph: " << inst.covering_base.summary()
            << "\n";

  const auto outcome =
      eds::algo::run_algorithm(inst.ported, eds::algo::Algorithm::kPortOne);
  const auto ratio = eds::analysis::approximation_ratio(
      outcome.solution.size(), inst.optimal.size());
  std::cout << "port-one output |D| = " << outcome.solution.size()
            << "  ->  ratio " << ratio << " (forced bound " << inst.forced_ratio
            << ")\n";

  const auto factory = eds::algo::make_factory(eds::algo::Algorithm::kPortOne);
  const auto raw = eds::runtime::run_synchronous(inst.ported.ports(), *factory);
  std::cout << "all nodes output the same port set: "
            << (eds::runtime::all_outputs_identical(inst.ported.ports(), raw)
                    ? "yes"
                    : "no")
            << " (the covering-map symmetry argument in action)\n\n";
}

void tour_odd(eds::port::Port d) {
  const auto inst = eds::lb::odd_lower_bound(d);
  const auto& g = inst.ported.graph();
  const auto k = (d - 1) / 2;
  std::cout << "--- Theorem 2, d = " << d << " (k = " << k << ") ---\n";
  std::cout << "G: " << g.summary() << " (" << d << " components H(l) of "
            << 4 * k + 1 << " nodes + hubs |P| = " << d << ", |Q| = " << 2 * k
            << ")\n";
  std::cout << "optimal |D*| = (k+1)d = " << inst.optimal.size()
            << ", covering multigraph: " << inst.covering_base.summary()
            << "\n";

  const auto outcome = eds::algo::run_algorithm(
      inst.ported, eds::algo::Algorithm::kOddRegular, d);
  const auto ratio = eds::analysis::approximation_ratio(
      outcome.solution.size(), inst.optimal.size());
  std::cout << "odd-regular output |D| = " << outcome.solution.size()
            << " (= (2d-1)d = " << (2 * static_cast<unsigned>(d) - 1) * d
            << ")  ->  ratio " << ratio << " (forced bound "
            << inst.forced_ratio << ")\n\n";
}

}  // namespace

int main() {
  std::cout << "Tightness tour: the adversarial graphs force every\n"
               "deterministic anonymous algorithm to its Table 1 ratio.\n\n";
  for (const eds::port::Port d : {2u, 4u, 6u, 8u}) tour_even(d);
  for (const eds::port::Port d : {3u, 5u, 7u}) tour_odd(d);
  return 0;
}
