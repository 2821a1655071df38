// Factory for the paper's experimental setup: N identical output drivers
// discharging their pad loads simultaneously through a shared ground
// parasitic network (Fig. 2/3/4 of the paper).
//
// Topology per driver group g (first member index i, multiplicity m):
//
//      vdd ----+---[PMOS x m]---+--- out_i ---||--- 0   (load m*C_L to board gnd)
//              |                |
//   in_i ------+----------------+
//              |                |
//              +---[NMOS x m]---+
//                    |
//                  vssi  --- L (+ optional R) --- 0, and C_pad from vssi to 0
//
// Drivers that share a signature (switching or quiet, input delay; the
// pull-down device and load are common to the whole spec) see identical
// node voltages, so m of them are simulated as one instance with the SPICE
// M-factor: both transistors wrapped in ScaledMosfetModel(., m), the load
// m*C_L and the anchor 1e7/m. This is the paper's own reduction (N drivers
// act as one device of transconductance N*K, Eqns 6-10); it makes the
// transient cost independent of N for a uniform bank. input_nodes and
// output_nodes keep one entry per driver, each naming its group's node.
// The per-driver circuit (every driver its own group of one) survives as
// the reference oracle, built from expanded_driver_groups().
//
// The NMOS bulk is tied to the quiet substrate (true ground) by default —
// this is what makes the fitted ASDM lambda exceed 1 (body effect of the
// bouncing source). A 10 MOhm anchor from each output to vdd keeps the DC
// operating point well-posed even when the pull-up is omitted.
#pragma once

#include "circuit/circuit.hpp"
#include "process/package.hpp"
#include "process/technology.hpp"

#include <memory>
#include <string>
#include <vector>

namespace ssnkit::circuit {

/// Revision of the circuit make_ssn_testbench emits. Bump it whenever the
/// emitted circuit changes numerically (revision 2: M-factor driver groups),
/// so persisted results keyed on a bench configuration are not mixed with
/// numbers from an older builder.
inline constexpr int kTestbenchRevision = 2;

struct SsnBenchSpec {
  process::Technology tech = process::tech_180nm();
  process::Package package = process::package_pga();
  int n_drivers = 8;            ///< drivers switching simultaneously (paper's N)
  int n_quiet = 0;              ///< extra drivers whose inputs stay low
  double input_rise_time = 0.1e-9;  ///< t_r; the paper's slope S = vdd / t_r
  double load_cap = 0.0;        ///< per-driver pad load [F]; 0 = tech default
  double driver_width_mult = 1.0;
  process::GoldenKind golden = process::GoldenKind::kAlphaPower;
  /// Replace the golden pull-down with a specific device (e.g. the fitted
  /// AsdmModel) to isolate formula error from device-fit error.
  std::shared_ptr<const devices::MosfetModel> pulldown_override;
  bool include_package_r = false;  ///< the paper neglects the 10 mOhm R
  bool include_package_c = true;   ///< Section 3 benches set this false
  bool include_pullup = true;      ///< full inverter driver vs bare pull-down
  bool bulk_to_vssi = false;       ///< tie NMOS bulk to the bouncing rail
  std::vector<double> stagger;     ///< per-driver input delay [s]; empty = all 0

  void validate() const;
};

/// The built circuit plus the probe names the analyses need.
struct SsnBench {
  Circuit circuit;
  std::string vssi_node = "vssi";       ///< the bouncing internal ground
  std::string vdd_node = "vdd";
  std::string inductor_name = "Lgnd";   ///< branch current = total SSN current
  std::vector<std::string> input_nodes;   ///< per driver: its group's input
  std::vector<std::string> output_nodes;  ///< per driver: its group's output
  double t_ramp_start = 0.0;            ///< earliest input ramp start
  double t_ramp_end = 0.0;              ///< latest input ramp end
  double slope = 0.0;                   ///< input slope S [V/s]
};

/// Drivers simulated as one M-scaled instance. Members are driver indices
/// (switching drivers first, then quiet ones, as in SsnBenchSpec) in
/// ascending order; the first member names the group's nodes and elements
/// and, through the spec, fixes the group's signature.
struct DriverGroup {
  std::vector<int> members;  ///< m = members.size()
};

/// The grouping make_ssn_testbench simulates: one group per distinct
/// signature, ordered by first member. Pure; validates the spec.
std::vector<DriverGroup> driver_groups(const SsnBenchSpec& spec);

/// Every driver its own group of one: the per-driver reference circuit.
/// Only the equivalence tests and bench_perf build it.
std::vector<DriverGroup> expanded_driver_groups(const SsnBenchSpec& spec);

/// Build the bench for an explicit grouping. Every driver must appear in
/// exactly one group, and all members of a group must share a signature.
SsnBench make_ssn_testbench(const SsnBenchSpec& spec,
                            const std::vector<DriverGroup>& groups);

/// Build the bench with driver_groups(spec).
SsnBench make_ssn_testbench(const SsnBenchSpec& spec);

}  // namespace ssnkit::circuit
