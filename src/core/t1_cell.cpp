#include "core/t1_cell.hpp"

#include <algorithm>

namespace t1sfq {

std::optional<T1PortFn> classify_t1_function(uint64_t word, unsigned num_vars) {
  if (num_vars != 3) {
    return std::nullopt;
  }
  switch (word) {
    case 0x96: return T1PortFn::Sum;
    case 0xe8: return T1PortFn::Carry;
    case 0xfe: return T1PortFn::Or;
    case 0x17: return T1PortFn::CarryN;
    case 0x01: return T1PortFn::OrN;
    default: return std::nullopt;
  }
}

unsigned t1_area(const CellLibrary& lib, const std::vector<T1PortFn>& ports) {
  unsigned area = lib.jj_t1;
  std::vector<T1PortFn> seen;
  for (const T1PortFn p : ports) {
    if (std::find(seen.begin(), seen.end(), p) != seen.end()) {
      continue;  // one port serves all roots with the same function
    }
    seen.push_back(p);
    area += lib.jj_cost(GateType::T1Port, p);
  }
  return area;
}

}  // namespace t1sfq
