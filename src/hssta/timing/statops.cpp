#include "hssta/timing/statops.hpp"

#include <cmath>

#include "hssta/stats/normal.hpp"
#include "hssta/util/error.hpp"

namespace hssta::timing {

namespace {

/// theta^2 below this fraction of the larger input variance is treated as
/// fully correlated: max{A, B} is then simply the input with the larger
/// nominal (A - B is essentially deterministic).
constexpr double kDegenerateFrac = 1e-14;

struct PairStats {
  double va, vb, cov, theta;
  bool degenerate;
};

/// Var(A), Var(B) and Cov(A, B) in one pass over the coefficient rows. Each
/// accumulator keeps the start value and order of form_variance /
/// form_covariance (variances start at random^2, the covariance at 0), so
/// the moments are bit-identical to the three separate kernels.
PairStats pair_stats(ConstFormView a, ConstFormView b) {
  HSSTA_REQUIRE(a.dim == b.dim, "covariance across different spaces");
  PairStats s{};
  double va = *a.random * *a.random;
  double vb = *b.random * *b.random;
  double cov = 0.0;
  const double* ca = a.corr;
  const double* cb = b.corr;
  for (size_t i = 0; i < a.dim; ++i) {
    va += ca[i] * ca[i];
    vb += cb[i] * cb[i];
    cov += ca[i] * cb[i];
  }
  s.va = va;
  s.vb = vb;
  s.cov = cov;
  const double theta2 = s.va + s.vb - 2.0 * s.cov;
  const double scale = std::max(s.va, s.vb);
  s.degenerate = theta2 <= kDegenerateFrac * scale || theta2 <= 0.0;
  s.theta = s.degenerate ? 0.0 : std::sqrt(theta2);
  return s;
}

}  // namespace

MaxDiagnostics& MaxDiagnostics::operator+=(const MaxDiagnostics& o) {
  ops += o.ops;
  variance_clamped += o.variance_clamped;
  degenerate_theta += o.degenerate_theta;
  return *this;
}

double tightness_probability(ConstFormView a, ConstFormView b) {
  const PairStats s = pair_stats(a, b);
  if (s.degenerate) return *a.nominal >= *b.nominal ? 1.0 : 0.0;
  return stats::normal_cdf((*a.nominal - *b.nominal) / s.theta);
}

double tightness_probability(const CanonicalForm& a, const CanonicalForm& b) {
  return tightness_probability(a.view(), b.view());
}

double max_mean(ConstFormView a, ConstFormView b) {
  const PairStats s = pair_stats(a, b);
  if (s.degenerate) return std::max(*a.nominal, *b.nominal);
  const double alpha = (*a.nominal - *b.nominal) / s.theta;
  const double tp = stats::normal_cdf(alpha);
  return tp * *a.nominal + (1.0 - tp) * *b.nominal +
         s.theta * stats::normal_pdf(alpha);
}

double max_mean(const CanonicalForm& a, const CanonicalForm& b) {
  return max_mean(a.view(), b.view());
}

double statistical_max_into(FormView dst, ConstFormView a, ConstFormView b,
                            MaxDiagnostics* diag) {
  HSSTA_REQUIRE(a.dim == b.dim && dst.dim == a.dim,
                "max across different spaces");
  if (diag) ++diag->ops;

  const PairStats s = pair_stats(a, b);
  if (s.degenerate) {
    if (diag) ++diag->degenerate_theta;
    const bool a_wins = *a.nominal >= *b.nominal;
    form_copy(dst, a_wins ? a : b);
    return a_wins ? 1.0 : 0.0;
  }

  const double a0 = *a.nominal;
  const double b0 = *b.nominal;
  const double alpha = (a0 - b0) / s.theta;
  const double tp = stats::normal_cdf(alpha);     // eq. 6
  const double pdf = stats::normal_pdf(alpha);

  // Clark's moments (eqs. 7-8).
  const double mu = tp * a0 + (1.0 - tp) * b0 + s.theta * pdf;
  const double second = tp * (s.va + a0 * a0) + (1.0 - tp) * (s.vb + b0 * b0) +
                        (a0 + b0) * s.theta * pdf;
  const double var = second - mu * mu;

  // Re-linearization (eq. 9): blend correlated coefficients by TP, match
  // the remaining variance with the private random term. Every moment has
  // been read by now, so writing dst is safe even when it aliases an input;
  // the blend reads ca[i]/cb[i] before writing co[i].
  *dst.nominal = mu;
  const double* ca = a.corr;
  const double* cb = b.corr;
  double* co = dst.corr;
  double corr_var = 0.0;
  for (size_t i = 0; i < dst.dim; ++i) {
    co[i] = tp * ca[i] + (1.0 - tp) * cb[i];
    corr_var += co[i] * co[i];
  }
  const double resid = var - corr_var;
  if (resid > 0.0) {
    *dst.random = std::sqrt(resid);
  } else {
    *dst.random = 0.0;
    if (diag) ++diag->variance_clamped;
  }
  return tp;
}

CanonicalForm statistical_max(const CanonicalForm& a, const CanonicalForm& b,
                              MaxDiagnostics* diag) {
  CanonicalForm out(a.dim());
  statistical_max_into(out.view(), a.view(), b.view(), diag);
  return out;
}

void statistical_max_accumulate(CanonicalForm& acc, const CanonicalForm& b,
                                MaxDiagnostics* diag) {
  statistical_max_into(acc.view(), acc.view(), b.view(), diag);
}

CanonicalForm statistical_max(std::span<const CanonicalForm> xs,
                              MaxDiagnostics* diag) {
  HSSTA_REQUIRE(!xs.empty(), "max of an empty set");
  CanonicalForm acc = xs[0];
  for (size_t i = 1; i < xs.size(); ++i)
    statistical_max_accumulate(acc, xs[i], diag);
  return acc;
}

void tightness_split_into(const FormBank& xs, size_t count,
                          std::vector<double>& tp, FormBank& scratch,
                          MaxDiagnostics* diag) {
  HSSTA_REQUIRE(count > 0 && count <= xs.rows(),
                "tightness split of an empty set");
  const size_t k = count;
  tp.assign(k, 0.0);
  if (k == 1) {
    tp[0] = 1.0;
    return;
  }
  if (k == 2) {
    const double t = tightness_probability(xs.row(0), xs.row(1));
    tp[0] = t;
    tp[1] = 1.0 - t;
    return;
  }
  // Leave-one-out maxima via prefix/suffix folds, kept in `scratch`: rows
  // [0, k) hold the prefix maxima, [k, 2k) the suffix maxima, row 2k the
  // per-entry "everything else" fold.
  if (scratch.rows() < 2 * k + 1 || scratch.dim() != xs.dim())
    scratch.reset(2 * k + 1, xs.dim());
  form_copy(scratch.row(0), xs.row(0));
  for (size_t t = 1; t < k; ++t)
    statistical_max_into(scratch.row(t), scratch.row(t - 1), xs.row(t), diag);
  form_copy(scratch.row(2 * k - 1), xs.row(k - 1));
  for (size_t t = k - 1; t-- > 0;)
    statistical_max_into(scratch.row(k + t), scratch.row(k + t + 1), xs.row(t),
                         diag);
  double sum = 0.0;
  for (size_t t = 0; t < k; ++t) {
    double p;
    if (t == 0) {
      p = tightness_probability(xs.row(0), scratch.row(k + 1));
    } else if (t + 1 == k) {
      p = tightness_probability(xs.row(k - 1), scratch.row(k - 2));
    } else {
      statistical_max_into(scratch.row(2 * k), scratch.row(t - 1),
                           scratch.row(k + t + 1), diag);
      p = tightness_probability(xs.row(t), scratch.row(2 * k));
    }
    tp[t] = p;
    sum += p;
  }
  if (sum > 0.0)
    for (double& p : tp) p /= sum;
  else
    for (double& p : tp) p = 1.0 / static_cast<double>(k);
}

}  // namespace hssta::timing
