#pragma once
/// \file pulse_sim.hpp
/// \brief Phase-accurate pulse-level simulation of scheduled SFQ netlists.
///
/// RSFQ logic is pulse-based: a wire carries a logical 1 in a clock cycle iff
/// an SFQ pulse travels down it during that cycle. This simulator propagates
/// data waves through a network whose every node has been assigned a clock
/// stage (see clocking.hpp), and checks the *timing legality* the paper's
/// flow must establish:
///
///  * every clocked element consumes pulses released in its own window
///    (0 < σ_consumer − σ_producer ≤ n; a larger gap means the pulse of the
///    next wave would collide — exactly what path-balancing DFFs prevent);
///  * the three data inputs of a T1 cell arrive at pairwise distinct stages
///    strictly inside the T1's clock cycle (paper §I-A: "two overlapping
///    input pulses may be treated as a single pulse, producing a data
///    hazard"; eq. 5 forces distinct stages).
///
/// The T1 cell itself is simulated with the state machine of Fig. 1a/1b:
/// pulses at T toggle the storage loop (emitting Q* on 0→1, C* on 1→0) and a
/// pulse at R reads out S when the loop holds 1.
///
/// Both checks run on a `PulseProgram`, compiled once per netlist, schedule
/// and clock: timing legality depends only on release stages, never on which
/// pulses are present, so the windows are checked once at compile time and
/// `run` then simulates 64 waves per 64-bit word (compiled, pattern-parallel
/// simulation after Barzilai et al., "HSS — A High-Speed Simulator", IEEE
/// TCAD 1987).

#include <cstdint>
#include <string>
#include <vector>

#include "network/network.hpp"
#include "sfq/clocking.hpp"

namespace t1sfq {

/// Behavioural model of the T1 flip-flop (paper Fig. 1a/1b).
class T1StateMachine {
public:
  struct TResponse {
    bool q_pulse = false;  ///< JQ switched: pulse at Q* (loop 0 -> 1)
    bool c_pulse = false;  ///< JC switched: pulse at C* (loop 1 -> 0)
  };

  /// A pulse arrives at the toggle input T.
  TResponse on_t();
  /// A pulse arrives at the read/reset input R; returns true iff S pulses.
  bool on_r();
  /// Current storage-loop state (false = bias through JQ, Fig. 1a blue path).
  bool state() const { return state_; }
  void reset() { state_ = false; }

private:
  bool state_ = false;
};

enum class ViolationKind {
  NonPositiveGap,    ///< consumer not strictly later than producer
  GapExceedsWindow,  ///< σc − σp > n: pulse would meet the next wave
  T1InputCollision,  ///< two T1 data inputs arrive at the same stage
  T1InputOutsideCycle,  ///< T1 data input not strictly inside the T1's cycle
};

const char* to_string(ViolationKind kind);

struct TimingViolation {
  ViolationKind kind;
  NodeId node;      ///< consuming element
  NodeId fanin;     ///< offending producer (second input for collisions)
  Stage producer;   ///< producer release stage
  Stage consumer;   ///< consumer clock stage
  std::string describe() const;
};

struct PulseSimResult {
  std::vector<bool> po_values;
  std::vector<TimingViolation> violations;
  bool ok() const { return violations.empty(); }
};

/// Release stage of every node under \p stage: the stage at which its pulse
/// leaves the element. Buf (JTL) and T1Port entries inherit their source's
/// release — they are passive pins, not clocked elements; everything else
/// releases at its own stage. `PulseProgram` times arrivals by the same rule.
std::vector<Stage> release_stages(const Network& net, const std::vector<Stage>& stage);

/// A scheduled netlist compiled for pulse-level simulation, 64 waves at a
/// time. \p stage must assign a stage to every live node (PIs typically at 0;
/// T1Port/Buf entries are ignored — they inherit); only the constructor
/// reads it. `run` reads \p net, which must outlive the program.
class PulseProgram {
public:
  /// One topological pass records the evaluation order, checks every clocked
  /// consumer's window and histograms the phase margins of the legal edges.
  /// Throws std::invalid_argument when \p stage is smaller than the network.
  PulseProgram(const Network& net, const std::vector<Stage>& stage,
               const MultiphaseConfig& clk);
  PulseProgram(Network&&, const std::vector<Stage>&, const MultiphaseConfig&) = delete;

  /// Simulates 64 waves: bit k of `pi_words[i]` is PI i in wave k; returns
  /// one word per PO with bit k its pulse in wave k. Cells evaluate as
  /// `Network::eval_word` in the recorded order. A T1 body's word is its
  /// storage loop after the present pulses toggled it (their parity, read
  /// out by R); its ports are the parity (S), majority (C), OR (Q) and the
  /// complements (C*, Q* plus inverter) of its three input words. Throws
  /// std::invalid_argument when \p pi_words does not hold one word per PI.
  std::vector<uint64_t> run(const std::vector<uint64_t>& pi_words) const;

  /// Every window and T1-landing violation, in topological order (per T1:
  /// inputs outside the cycle, then colliding pairs).
  const std::vector<TimingViolation>& violations() const { return violations_; }
  bool ok() const { return violations_.empty(); }

  /// Phase margins of the in-window edges: distance in stages to the nearest
  /// window boundary, `margin_histogram()[m]` edges at margin m (the last of
  /// the n buckets collects the rest). Violating edges are not counted.
  const std::vector<uint64_t>& margin_histogram() const { return margin_histogram_; }
  int64_t min_margin() const { return min_margin_; }  ///< 0 when no edge is checked
  std::size_t checked_edges() const { return checked_edges_; }

  /// Live nodes in the order `run` evaluates them (a topological order).
  const std::vector<NodeId>& order() const { return order_; }

private:
  const Network& net_;
  std::vector<NodeId> order_;
  std::vector<TimingViolation> violations_;
  std::vector<uint64_t> margin_histogram_;
  int64_t min_margin_ = 0;
  std::size_t checked_edges_ = 0;
};

/// Simulates one data wave: a one-lane `PulseProgram`. Throws
/// std::invalid_argument when \p stage is undersized or \p pi_values does
/// not hold one value per PI.
PulseSimResult pulse_simulate(const Network& net, const std::vector<Stage>& stage,
                              const MultiphaseConfig& clk, const std::vector<bool>& pi_values);

/// Convenience: runs `rounds` x 64 random waves and reports whether the
/// scheduled netlist is free of timing violations (checked even when
/// `rounds` is 0) and matches ordinary functional simulation on all of them.
bool pulse_verify(const Network& net, const std::vector<Stage>& stage,
                  const MultiphaseConfig& clk, const Network& golden, unsigned rounds = 4,
                  uint64_t seed = 0x7ab5);

}  // namespace t1sfq
