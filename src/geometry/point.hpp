#pragma once

// 2D points and metrics for the geometric mobility models (Section 4.1).

#include <cmath>

namespace megflood {

struct Point2D {
  double x = 0.0;
  double y = 0.0;

  friend constexpr bool operator==(const Point2D& a, const Point2D& b) {
    return a.x == b.x && a.y == b.y;
  }
};

inline double euclidean_distance(const Point2D& a, const Point2D& b) {
  const double dx = a.x - b.x, dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

inline double squared_distance(const Point2D& a, const Point2D& b) {
  const double dx = a.x - b.x, dy = a.y - b.y;
  return dx * dx + dy * dy;
}

}  // namespace megflood
