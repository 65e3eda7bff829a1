#include "geometry/square_grid.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

namespace megflood {

SquareGrid::SquareGrid(std::size_t m, double side_length)
    : m_(m), length_(side_length) {
  if (m < 2 || m > (std::size_t{1} << 16)) {
    throw std::invalid_argument(
        "SquareGrid: resolution m must be in [2, 65536], got " +
        std::to_string(m));
  }
  if (side_length <= 0.0) {
    throw std::invalid_argument("SquareGrid: side length must be positive");
  }
  spacing_ = length_ / static_cast<double>(m_ - 1);
  inv_spacing_ = 1.0 / spacing_;
}

CellId SquareGrid::index(std::size_t row, std::size_t col) const {
  assert(row < m_ && col < m_);
  return static_cast<CellId>(row * m_ + col);
}

Point2D SquareGrid::position(CellId id) const {
  assert(id < num_points());
  return {static_cast<double>(col(id)) * spacing_,
          static_cast<double>(row(id)) * spacing_};
}

std::vector<CellId> SquareGrid::disc(CellId id, double radius) const {
  std::vector<CellId> result;
  if (radius < 0.0) return result;
  const Point2D center = position(id);
  const auto span = static_cast<std::ptrdiff_t>(std::ceil(radius / spacing_));
  const auto r0 = static_cast<std::ptrdiff_t>(row(id));
  const auto c0 = static_cast<std::ptrdiff_t>(col(id));
  const auto mm = static_cast<std::ptrdiff_t>(m_);
  const double r2 = radius * radius;
  for (std::ptrdiff_t dr = -span; dr <= span; ++dr) {
    for (std::ptrdiff_t dc = -span; dc <= span; ++dc) {
      if (dr == 0 && dc == 0) continue;
      const std::ptrdiff_t rr = r0 + dr, cc = c0 + dc;
      if (rr < 0 || rr >= mm || cc < 0 || cc >= mm) continue;
      const CellId other = index(static_cast<std::size_t>(rr),
                                 static_cast<std::size_t>(cc));
      if (squared_distance(center, position(other)) <= r2) {
        result.push_back(other);
      }
    }
  }
  return result;
}

bool SquareGrid::disc_inside(CellId id, double radius) const {
  const Point2D p = position(id);
  return p.x - radius >= 0.0 && p.x + radius <= length_ &&
         p.y - radius >= 0.0 && p.y + radius <= length_;
}

}  // namespace megflood
