// Value types of the kernel IR. Vectors model the paper's 128-bit VECTOR
// accesses (Figs. 4/5) as multi-lane scalar types.
#pragma once

#include <cstdint>

#include "common/error.hpp"

namespace hlsprof::ir {

enum class Scalar : std::uint8_t { i32, i64, f32, f64 };

inline constexpr int kMaxLanes = 16;

/// A (possibly vector) value type: `lanes` copies of `scalar`.
struct Type {
  Scalar scalar = Scalar::i32;
  std::uint16_t lanes = 1;

  static Type i32(int lanes = 1) { return make(Scalar::i32, lanes); }
  static Type i64(int lanes = 1) { return make(Scalar::i64, lanes); }
  static Type f32(int lanes = 1) { return make(Scalar::f32, lanes); }
  static Type f64(int lanes = 1) { return make(Scalar::f64, lanes); }

  static Type make(Scalar s, int lanes) {
    HLSPROF_CHECK(lanes >= 1 && lanes <= kMaxLanes, "lane count out of range");
    return Type{s, static_cast<std::uint16_t>(lanes)};
  }

  bool is_float() const {
    return scalar == Scalar::f32 || scalar == Scalar::f64;
  }
  bool is_int() const { return !is_float(); }
  bool is_vector() const { return lanes > 1; }

  /// Size of one lane in bytes.
  int scalar_bytes() const {
    switch (scalar) {
      case Scalar::i32:
      case Scalar::f32:
        return 4;
      case Scalar::i64:
      case Scalar::f64:
        return 8;
    }
    return 4;
  }

  /// Total size in bytes (lanes * lane size).
  int bytes() const { return scalar_bytes() * lanes; }

  Type with_lanes(int n) const { return make(scalar, n); }
  Type element() const { return Type{scalar, 1}; }

  bool operator==(const Type& o) const {
    return scalar == o.scalar && lanes == o.lanes;
  }
  bool operator!=(const Type& o) const { return !(*this == o); }
};

}  // namespace hlsprof::ir
