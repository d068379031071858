#include "network/io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "benchmarks/random_net.hpp"
#include "benchmarks/suite.hpp"
#include "network/simulation.hpp"

namespace t1sfq {
namespace {

Network full_adder() {
  Network net("fa");
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  const NodeId c = net.add_pi("cin");
  const NodeId axb = net.add_xor(a, b);
  net.add_po(net.add_xor(axb, c), "sum");
  net.add_po(net.add_or(net.add_and(a, b), net.add_and(axb, c)), "cout");
  return net;
}

Network round_trip(const Network& net) {
  std::stringstream ss;
  write_blif(net, ss);
  return read_blif(ss);
}

TEST(BlifIo, FullAdderRoundTrip) {
  const Network net = full_adder();
  const Network back = round_trip(net);
  EXPECT_EQ(back.name(), "fa");
  EXPECT_EQ(back.num_pis(), 3u);
  EXPECT_EQ(back.num_pos(), 2u);
  EXPECT_TRUE(random_simulation_equal(net, back));
}

TEST(BlifIo, AllGateTypesRoundTrip) {
  Network net("gates");
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  const NodeId c = net.add_pi("c");
  net.add_po(net.add_and(a, b), "o_and");
  net.add_po(net.add_or(a, b), "o_or");
  net.add_po(net.add_xor(a, b), "o_xor");
  net.add_po(net.add_nand(a, c), "o_nand");
  net.add_po(net.add_nor(b, c), "o_nor");
  net.add_po(net.add_xnor(b, c), "o_xnor");
  net.add_po(net.add_not(a), "o_not");
  net.add_po(net.add_maj(a, b, c), "o_maj");
  net.add_po(net.add_xor3(a, b, c), "o_xor3");
  net.add_po(net.add_gate(GateType::And3, {a, b, c}), "o_and3");
  net.add_po(net.add_gate(GateType::Or3, {a, b, c}), "o_or3");
  const Network back = round_trip(net);
  EXPECT_TRUE(random_simulation_equal(net, back));
}

TEST(BlifIo, ConstantsRoundTrip) {
  Network net("consts");
  (void)net.add_pi("a");
  net.add_po(net.get_const0(), "zero");
  net.add_po(net.get_const1(), "one");
  const Network back = round_trip(net);
  const auto out = simulate(back, {false});
  EXPECT_FALSE(out[0]);
  EXPECT_TRUE(out[1]);
}

TEST(BlifIo, DffRoundTrip) {
  Network net("dffs");
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  net.add_po(net.add_dff(net.add_and(a, b)), "q");
  const Network back = round_trip(net);
  EXPECT_EQ(back.count_of(GateType::Dff), 1u);
  EXPECT_TRUE(random_simulation_equal(net, back));
}

TEST(BlifIo, T1RoundTrip) {
  Network net("t1net");
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  const NodeId c = net.add_pi("c");
  const NodeId t1 = net.add_t1(a, b, c);
  net.add_po(net.add_t1_port(t1, T1PortFn::Sum), "s");
  net.add_po(net.add_t1_port(t1, T1PortFn::Carry), "k");
  net.add_po(net.add_t1_port(t1, T1PortFn::OrN), "qn");
  const Network back = round_trip(net);
  EXPECT_EQ(back.count_of(GateType::T1), 1u);
  EXPECT_TRUE(random_simulation_equal(net, back));
}

std::string blif_text(const Network& net) {
  std::ostringstream ss;
  write_blif(net, ss);
  return ss.str();
}

/// The first line where \p a and \p b differ ("" when equal): a short
/// message instead of gtest's quadratic diff of two whole netlists.
std::string first_difference(const std::string& a, const std::string& b) {
  std::istringstream sa(a), sb(b);
  std::string la, lb;
  for (std::size_t line = 1;; ++line) {
    const bool end_a = !std::getline(sa, la);
    const bool end_b = !std::getline(sb, lb);
    if (end_a && end_b) return {};
    if (end_a || end_b || la != lb) {
      return "line " + std::to_string(line) + ": '" + la + "' vs '" + lb + "'";
    }
  }
}

TEST(BlifIo, WrittenNetlistsReadBackCellForCell) {
  // Every `.names` record the writer emits reads back as the cell it came
  // from, so a cleaned network's BLIF is a fixed point of read-then-write.
  std::vector<Network> nets;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    nets.push_back(bench::random_network(seed, 64, 1000, bench::RandomPoPolicy::AllSinks,
                                         /*plant_cone_every=*/200));
  }
  for (uint64_t seed = 0; seed < 6; ++seed) {  // the rand-default workload's shape
    nets.push_back(bench::random_network(seed, 125, 2000, bench::RandomPoPolicy::AllSinks,
                                         /*plant_cone_every=*/24));
  }
  for (const auto& bc : bench::make_suite()) nets.push_back(bc.generate());
  for (std::size_t i = 0; i < nets.size(); ++i) {
    SCOPED_TRACE("network " + std::to_string(i) + " " + nets[i].name());
    const std::string text = blif_text(nets[i].cleanup());
    std::istringstream is(text);
    EXPECT_EQ(first_difference(text, blif_text(read_blif(is))), "");
  }
}

TEST(BlifIo, ReadsCellCoversAsCellsInAnyCubeOrder) {
  const auto read_one = [](const std::string& inputs, const std::string& cover) {
    std::istringstream is(".model m\n.inputs " + inputs + "\n.outputs y\n.names " + inputs +
                          " y\n" + cover + ".end\n");
    const Network net = read_blif(is);
    return net.node(net.po(0)).type;
  };
  EXPECT_EQ(read_one("a b c", "11- 1\n1-1 1\n-11 1\n"), GateType::Maj3);
  EXPECT_EQ(read_one("a b c", "-11 1\n11- 1\n1-1 1\n"), GateType::Maj3);
  EXPECT_EQ(read_one("a b c", "111 1\n001 1\n010 1\n100 1\n"), GateType::Xor3);
  EXPECT_EQ(read_one("a b", "-0 1\n0- 1\n"), GateType::Nand2);
  EXPECT_EQ(read_one("a b", "00 1\n11 1\n"), GateType::Xnor2);
  EXPECT_EQ(read_one("a", "0 1\n"), GateType::Not);
  // A cover no cell computes keeps the sum-of-products structure.
  EXPECT_EQ(read_one("a b c", "11- 1\n--1 1\n"), GateType::Or2);
}

TEST(BlifIo, PoFedByPiRoundTrip) {
  Network net("wire");
  const NodeId a = net.add_pi("a");
  net.add_po(a, "y");
  const Network back = round_trip(net);
  const auto out = simulate(back, {true});
  EXPECT_TRUE(out[0]);
}

TEST(BlifIo, ReadsMultiCubeCover) {
  const std::string blif =
      ".model sop\n"
      ".inputs a b c\n"
      ".outputs y\n"
      ".names a b c y\n"
      "11- 1\n"
      "--1 1\n"
      ".end\n";
  std::stringstream ss(blif);
  const Network net = read_blif(ss);
  // y = (a & b) | c
  EXPECT_FALSE(simulate(net, {true, false, false})[0]);
  EXPECT_TRUE(simulate(net, {true, true, false})[0]);
  EXPECT_TRUE(simulate(net, {false, false, true})[0]);
}

TEST(BlifIo, ReadsOutOfOrderRecords) {
  const std::string blif =
      ".model ooo\n"
      ".inputs a b\n"
      ".outputs y\n"
      ".names t y\n"
      "0 1\n"
      ".names a b t\n"
      "11 1\n"
      ".end\n";
  std::stringstream ss(blif);
  const Network net = read_blif(ss);
  EXPECT_TRUE(simulate(net, {true, false})[0]);   // nand
  EXPECT_FALSE(simulate(net, {true, true})[0]);
}

TEST(BlifIo, RejectsUndrivenOutput) {
  const std::string blif =
      ".model bad\n.inputs a\n.outputs y\n.end\n";
  std::stringstream ss(blif);
  EXPECT_THROW(read_blif(ss), std::runtime_error);
}

TEST(BlifIo, RejectsCombinationalCycle) {
  const std::string blif =
      ".model cyc\n"
      ".inputs a\n"
      ".outputs y\n"
      ".names y a y\n"
      "11 1\n"
      ".end\n";
  std::stringstream ss(blif);
  EXPECT_THROW(read_blif(ss), std::runtime_error);
}

TEST(VerilogIo, EmitsModuleWithAssigns) {
  const Network net = full_adder();
  std::stringstream ss;
  write_verilog(net, ss);
  const std::string v = ss.str();
  EXPECT_NE(v.find("module fa"), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
  EXPECT_NE(v.find("input a;"), std::string::npos);
  EXPECT_NE(v.find("output sum;"), std::string::npos);
  EXPECT_NE(v.find("^"), std::string::npos);
}

TEST(VerilogIo, EmitsT1Instances) {
  Network net("t1v");
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  const NodeId c = net.add_pi("c");
  const NodeId t1 = net.add_t1(a, b, c);
  net.add_po(net.add_t1_port(t1, T1PortFn::Carry), "k");
  std::stringstream ss;
  write_verilog(net, ss);
  EXPECT_NE(ss.str().find("sfq_t1_co"), std::string::npos);
}

}  // namespace
}  // namespace t1sfq
