#include "core/t1_cell.hpp"

#include <gtest/gtest.h>

#include "network/truth_table.hpp"

namespace t1sfq {
namespace {

std::optional<T1PortFn> classify(const TruthTable& f) {
  return classify_t1_function(f.word(0), f.num_vars());
}

TEST(T1Cell, ClassifiesTheFivePortFunctions) {
  EXPECT_EQ(classify(tt3::xor3()), T1PortFn::Sum);
  EXPECT_EQ(classify(tt3::maj3()), T1PortFn::Carry);
  EXPECT_EQ(classify(tt3::or3()), T1PortFn::Or);
  EXPECT_EQ(classify(tt3::minority3()), T1PortFn::CarryN);
  EXPECT_EQ(classify(tt3::nor3()), T1PortFn::OrN);
}

TEST(T1Cell, RejectsOtherFunctions) {
  EXPECT_FALSE(classify(tt3::and3()).has_value());
  EXPECT_FALSE(classify(tt3::xnor3()).has_value());  // S has no inverter port
  EXPECT_FALSE(classify(TruthTable::from_hex(3, "d8")).has_value());  // ite
  EXPECT_FALSE(classify(TruthTable::constant(3, true)).has_value());
}

TEST(T1Cell, RejectsDegenerateSupport) {
  // xor2 extended to 3 vars: a don't-care leaf would still pulse the loop.
  const auto xor2on3 = TruthTable::nth_var(3, 0) ^ TruthTable::nth_var(3, 1);
  EXPECT_FALSE(classify(xor2on3).has_value());
  EXPECT_FALSE(classify(TruthTable::nth_var(3, 2)).has_value());
}

TEST(T1Cell, RejectsWrongArity) {
  EXPECT_FALSE(classify(TruthTable::nth_var(2, 0)).has_value());
  // NOR2's table 0x1 is the word of NOR3 (Q*) over three variables.
  EXPECT_FALSE(classify(~(TruthTable::nth_var(2, 0) | TruthTable::nth_var(2, 1))).has_value());
  const auto xor4 = TruthTable::nth_var(4, 0) ^ TruthTable::nth_var(4, 1) ^
                    TruthTable::nth_var(4, 2) ^ TruthTable::nth_var(4, 3);
  EXPECT_FALSE(classify(xor4).has_value());
}

TEST(T1Cell, WordMatchAgreesWithTableComparisonOnAllThreeVariableFunctions) {
  // The word match against the table comparisons it replaced: full support,
  // then equality with one of the five tt3:: port functions.
  const auto by_tables = [](const TruthTable& f) -> std::optional<T1PortFn> {
    if (f.support_size() != 3) return std::nullopt;
    if (f == tt3::xor3()) return T1PortFn::Sum;
    if (f == tt3::maj3()) return T1PortFn::Carry;
    if (f == tt3::or3()) return T1PortFn::Or;
    if (f == tt3::minority3()) return T1PortFn::CarryN;
    if (f == tt3::nor3()) return T1PortFn::OrN;
    return std::nullopt;
  };
  unsigned matched = 0;
  for (uint64_t w = 0; w < 256; ++w) {
    TruthTable f(3);
    f.set_word(0, w);
    const auto expected = by_tables(f);
    EXPECT_EQ(classify_t1_function(w, 3), expected) << "0x" << f.to_hex();
    matched += expected.has_value();
  }
  EXPECT_EQ(matched, 5u);
}

TEST(T1Cell, AreaOfFullAdderConfiguration) {
  const CellLibrary lib;
  // S + C: the paper's 29 JJ full adder.
  EXPECT_EQ(t1_area(lib, {T1PortFn::Sum, T1PortFn::Carry}), 29u);
}

TEST(T1Cell, InvertedPortsPayInverters) {
  const CellLibrary lib;
  EXPECT_EQ(t1_area(lib, {T1PortFn::Sum, T1PortFn::CarryN}), 29u + lib.jj_t1_inverter);
  EXPECT_EQ(t1_area(lib, {T1PortFn::CarryN, T1PortFn::OrN}), 29u + 2 * lib.jj_t1_inverter);
}

TEST(T1Cell, DuplicatePortsCountedOnce) {
  const CellLibrary lib;
  EXPECT_EQ(t1_area(lib, {T1PortFn::Sum, T1PortFn::Sum, T1PortFn::Carry}), 29u);
  EXPECT_EQ(t1_area(lib, {T1PortFn::OrN, T1PortFn::OrN}), 29u + lib.jj_t1_inverter);
}

}  // namespace
}  // namespace t1sfq
