#include "workload.hpp"

#include <algorithm>

namespace dcsrbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void append_spans(std::vector<Span>& all, const std::vector<Span>& rep) {
  const int base = static_cast<int>(all.size());
  for (Span s : rep) {
    if (s.parent >= 0) s.parent += base;
    all.push_back(s);
  }
}

}  // namespace dcsrbench
