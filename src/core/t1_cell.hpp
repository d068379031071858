#pragma once
/// \file t1_cell.hpp
/// \brief The T1-FF function set and Boolean matching predicate (paper §I-A).
///
/// Used as a logic cell, the extended T1-FF offers up to five synchronous
/// output functions of its three (time-multiplexed) data inputs:
///
///   port | circuit path     | function
///   -----+------------------+----------
///   S    | R read-out       | XOR3  (sum)
///   C    | JC, every 2nd T  | MAJ3  (carry)
///   Q    | JQ, 1st T pulse  | OR3
///   C*   | C + inverter     | NOT MAJ3
///   Q*   | Q + inverter     | NOT OR3
///
/// All five are *totally symmetric* in {a,b,c}, which makes Boolean matching
/// permutation-free: a cut function either equals one of the five tables or
/// it is not T1-implementable (paper's "considering possible input and output
/// negations" resolves to the C*/Q* rows; S has no inverted port in [5]).

#include <optional>

#include "network/network.hpp"
#include "sfq/cell_library.hpp"

namespace t1sfq {

/// Matches a cut function, given as its truth-table word over \p num_vars
/// variables (bit m = value on minterm m), against the T1 output set. Only
/// 3-variable functions match, and only the five tables 0x96 (S), 0xe8 (C),
/// 0xfe (Q), 0x17 (C*) and 0x01 (Q*); each depends on all three leaves (a
/// don't-care leaf would still inject pulses into the storage loop and
/// corrupt the count).
std::optional<T1PortFn> classify_t1_function(uint64_t word, unsigned num_vars);

/// JJ cost of a T1 realization providing the given set of ports
/// (body + one appended inverter per negated port).
unsigned t1_area(const CellLibrary& lib, const std::vector<T1PortFn>& ports);

}  // namespace t1sfq
