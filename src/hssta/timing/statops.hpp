/// \file statops.hpp
/// Statistical maximum of canonical forms (paper Section II, eqs. 6-9),
/// following Visweswariah et al. (DAC'04) / Clark (1961):
///  * tightness probability TP = Prob{A >= B} = Phi((a0-b0)/theta),
///    theta^2 = Var(A) + Var(B) - 2 Cov(A, B);
///  * the exact mean/variance of max{A, B} from Clark's moments;
///  * re-linearization: correlated coefficients blend as
///    TP * a + (1-TP) * b, the private random coefficient is set by
///    variance matching (clamped at zero when Clark's variance falls below
///    the correlated part — a known property of the approximation, counted
///    in MaxDiagnostics).
///
/// The kernels (`statistical_max_into`, `tightness_split_into`) write into
/// caller-owned storage — FormBank rows or a CanonicalForm's own fields —
/// without allocating; the CanonicalForm max wrappers delegate to them, so
/// results are bit-identical across both by construction.

#pragma once

#include <span>

#include "hssta/timing/canonical.hpp"
#include "hssta/timing/form_bank.hpp"

namespace hssta::timing {

/// Counters exposing the numerical health of max operations.
struct MaxDiagnostics {
  size_t ops = 0;               ///< pairwise max operations performed
  size_t variance_clamped = 0;  ///< variance matching hit the zero clamp
  size_t degenerate_theta = 0;  ///< theta ~ 0: picked the dominating input

  MaxDiagnostics& operator+=(const MaxDiagnostics& o);
};

/// Prob{A >= B}. For theta ~ 0 returns 0 or 1 by nominal comparison.
[[nodiscard]] double tightness_probability(ConstFormView a, ConstFormView b);
[[nodiscard]] double tightness_probability(const CanonicalForm& a,
                                           const CanonicalForm& b);

/// Clark's exact mean of max{A, B} (before re-linearization).
[[nodiscard]] double max_mean(ConstFormView a, ConstFormView b);
[[nodiscard]] double max_mean(const CanonicalForm& a, const CanonicalForm& b);

/// dst = statistical max{a, b}, re-linearized, written in place. The hot
/// kernel of every sweep: no allocation, one pass over the coefficient
/// rows for the moments (Var(A), Var(B) and Cov(A, B) share one loop, each
/// accumulated in form_variance / form_covariance order, so they are
/// bit-identical to those kernels) and one for the blend. `dst` may alias
/// `a` or `b` — all moments (variances, covariance, nominals) are read
/// before the first write, and the blend loop reads index i of both inputs
/// before writing index i of dst. Returns the tightness Prob{A >= B} it
/// blended with — bit-identical to tightness_probability(a, b), including
/// the 1 / 0 of the degenerate case.
double statistical_max_into(FormView dst, ConstFormView a, ConstFormView b,
                            MaxDiagnostics* diag = nullptr);

/// Statistical maximum re-linearized into a fresh canonical form
/// (boundary-API convenience over statistical_max_into).
[[nodiscard]] CanonicalForm statistical_max(const CanonicalForm& a,
                                            const CanonicalForm& b,
                                            MaxDiagnostics* diag = nullptr);

/// In-place fold: acc = max{acc, b}.
void statistical_max_accumulate(CanonicalForm& acc, const CanonicalForm& b,
                                MaxDiagnostics* diag = nullptr);

/// Sequential n-ary maximum (the paper applies the pairwise operation
/// iteratively). Throws on an empty span.
[[nodiscard]] CanonicalForm statistical_max(std::span<const CanonicalForm> xs,
                                            MaxDiagnostics* diag = nullptr);

/// Probability that each of the first `count` rows of `xs` is the maximum
/// of the set: leave-one-out tightness probabilities (prefix/suffix Clark
/// folds), renormalized to sum to exactly 1, written into `tp` (resized to
/// `count`). The folds live in `scratch` (reshaped as needed; reusable
/// across calls, so a warm caller allocates nothing). Throws when `count`
/// is 0 or exceeds the rows of `xs`.
///
/// Postcondition for count > 2: scratch row t holds the prefix fold
/// max{xs[0], ..., xs[t]}, folded left to right exactly as a sweep folds a
/// vertex's fanin candidates, so row count-1 is the statistical max of all
/// `count` rows. The fused criticality sweep reads its arrival from there
/// instead of folding the candidates a second time.
void tightness_split_into(const FormBank& xs, size_t count,
                          std::vector<double>& tp, FormBank& scratch,
                          MaxDiagnostics* diag = nullptr);

}  // namespace hssta::timing
