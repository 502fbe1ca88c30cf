/// \file form_bank.hpp
/// Structure-of-arrays canonical-form storage: one contiguous row-major
/// [rows x (dim + 2)] matrix of doubles, each row holding one form as
/// [nominal, corr[0..dim), random]. PropagationResult keeps one row per
/// vertex slot, so a topological sweep walks memory linearly instead
/// of chasing one heap vector per vertex, and the span kernels of
/// canonical.hpp / statops.hpp fold rows in place — no allocation anywhere
/// on the hot path. CanonicalForm remains the boundary type: `form()` /
/// `store()` convert a row at the API edge, `row()` hands out views for the
/// kernels.

#pragma once

#include <cstddef>
#include <vector>

#include "hssta/timing/canonical.hpp"

namespace hssta::timing {

class FormBank {
 public:
  FormBank() = default;
  FormBank(size_t rows, size_t dim) { reset(rows, dim); }

  /// Reshape to `rows` zero forms of dimension `dim`, recycling the buffer
  /// (assign() reuses capacity, so a reused bank does not reallocate).
  void reset(size_t rows, size_t dim) {
    rows_ = rows;
    dim_ = dim;
    data_.assign(rows * stride(), 0.0);
  }

  /// Grow or shrink the row count, preserving existing rows; new rows are
  /// zero forms.
  void resize_rows(size_t rows) {
    data_.resize(rows * stride(), 0.0);
    rows_ = rows;
  }

  [[nodiscard]] size_t rows() const { return rows_; }
  [[nodiscard]] size_t dim() const { return dim_; }
  /// Doubles per row: nominal + dim correlated coefficients + random.
  [[nodiscard]] size_t stride() const { return dim_ + 2; }
  [[nodiscard]] bool empty() const { return rows_ == 0; }

  /// Unchecked row access (like vector::operator[]); `r < rows()`.
  [[nodiscard]] FormView row(size_t r) {
    double* p = data_.data() + r * stride();
    return FormView{p, p + 1, p + 1 + dim_, dim_};
  }
  [[nodiscard]] ConstFormView row(size_t r) const {
    const double* p = data_.data() + r * stride();
    return ConstFormView{p, p + 1, p + 1 + dim_, dim_};
  }

  /// Materialize row `r` as a boundary CanonicalForm.
  [[nodiscard]] CanonicalForm form(size_t r) const {
    CanonicalForm f(dim_);
    form_copy(f.view(), row(r));
    return f;
  }

  /// Copy a boundary form into row `r` (dimensions must match).
  void store(size_t r, const CanonicalForm& f) { form_copy(row(r), f.view()); }

  [[nodiscard]] double* data() { return data_.data(); }
  [[nodiscard]] const double* data() const { return data_.data(); }
  [[nodiscard]] size_t size() const { return data_.size(); }

 private:
  size_t rows_ = 0;
  size_t dim_ = 0;
  std::vector<double> data_;
};

}  // namespace hssta::timing
