#pragma once
/// \file io.hpp
/// \brief BLIF reader/writer and structural Verilog writer.
///
/// BLIF is the interchange format of the academic synthesis ecosystem the
/// paper builds on (ABC / mockturtle). The writer emits one `.names` record
/// per logic cell, and `.subckt dff` / `.subckt t1` instances for DFFs and T1
/// cells. The reader accepts the subset this library writes plus plain
/// `.names` cubes with single-output covers. A cover of at most three inputs
/// that computes a logic cell's function is read back as that cell, so a
/// netlist survives a round trip cell for cell; any other cover becomes an
/// And/Or/Not sum of products.

#include <iosfwd>
#include <string>

#include "network/network.hpp"

namespace t1sfq {

/// Writes the network in BLIF. T1 bodies become `.subckt t1 a=.. b=.. c=..
/// s=.. ...` records (only the connected ports are listed).
void write_blif(const Network& net, std::ostream& os);
void write_blif_file(const Network& net, const std::string& path);

/// Reads a BLIF model. Supports `.model/.inputs/.outputs/.names/.subckt dff/
/// .subckt t1/.end`, cube covers with don't-cares (`-`), and multi-cube ORs.
Network read_blif(std::istream& is);
Network read_blif_file(const std::string& path);

/// Writes a flat structural Verilog module (assign-style for logic cells,
/// module instances for T1 cells and DFFs).
void write_verilog(const Network& net, std::ostream& os);
void write_verilog_file(const Network& net, const std::string& path);

}  // namespace t1sfq
