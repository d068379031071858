#pragma once
/// \file resubstitution.hpp
/// \brief DFF-aware resubstitution with simulation signatures + SAT proofs.
///
/// Classic resubstitution asks: can node n be replaced by an *existing*
/// signal m (possibly through one inverter)? Candidates are found with
/// word-parallel simulation signatures (simulation.hpp) and every commit is
/// proved by a SAT miter between the two node literals (equivalence.hpp /
/// sat.hpp) — a signature match alone never rewires anything.
///
/// The SFQ twist is the scoring. In a multiphase netlist a merged signal does
/// not just save its MFFC's gates: the donor's DFF spine must now stretch to
/// the absorbed consumers, the spines and fanout splitters of the dying cone
/// disappear, and the donor pin picks up splitters for its new consumers.
/// Candidates are priced by `resub_delta` (opt/jj_delta.hpp) in
/// the unified JJ currency — gate bodies + clock shares + splitters + the
/// shared-spine DFF model of `plan_dffs` evaluated on ASAP stages — and a
/// substitution is committed only when that delta improves. Donors never sit
/// above the target level, so depth never grows.

#include "opt/pass.hpp"

namespace t1sfq {

class ResubstitutionPass : public Pass {
public:
  using Pass::Pass;
  const char* name() const override { return "resubstitution"; }
  std::size_t run(Network& net) override;
};

}  // namespace t1sfq
