#include "circuit/testbench.hpp"

#include "support/contracts.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

namespace ssnkit::circuit {

void SsnBenchSpec::validate() const {
  tech.validate();
  package.validate();
  SSN_REQUIRE(n_drivers >= 1, "SsnBenchSpec: n_drivers must be >= 1");
  SSN_REQUIRE(n_quiet >= 0, "SsnBenchSpec: n_quiet must be >= 0");
  SSN_REQUIRE(input_rise_time > 0.0, "SsnBenchSpec: input_rise_time must be > 0");
  SSN_REQUIRE(load_cap >= 0.0, "SsnBenchSpec: load_cap must be >= 0");
  SSN_REQUIRE(driver_width_mult > 0.0,
              "SsnBenchSpec: driver_width_mult must be > 0");
  SSN_REQUIRE(stagger.empty() || int(stagger.size()) == n_drivers,
              "SsnBenchSpec: stagger must be empty or have n_drivers entries");
  for (double s : stagger)
    SSN_REQUIRE(s >= 0.0, "SsnBenchSpec: stagger must be >= 0");
}

namespace {

// A driver's signature; every driver of a spec shares the pull-down device
// and load, so switching-or-quiet and the exact input delay decide it.
std::pair<bool, double> signature(const SsnBenchSpec& spec, int i) {
  if (i >= spec.n_drivers) return {false, 0.0};
  return {true, spec.stagger.empty() ? 0.0 : spec.stagger[std::size_t(i)]};
}

}  // namespace

std::vector<DriverGroup> driver_groups(const SsnBenchSpec& spec) {
  spec.validate();
  std::vector<DriverGroup> groups;
  std::map<std::pair<bool, double>, std::size_t> index;
  for (int i = 0; i < spec.n_drivers + spec.n_quiet; ++i) {
    const auto sig = signature(spec, i);
    const auto [it, fresh] = index.emplace(sig, groups.size());
    if (fresh) groups.emplace_back();
    groups[it->second].members.push_back(i);
  }
  return groups;
}

std::vector<DriverGroup> expanded_driver_groups(const SsnBenchSpec& spec) {
  spec.validate();
  std::vector<DriverGroup> groups;
  for (int i = 0; i < spec.n_drivers + spec.n_quiet; ++i)
    groups.push_back(DriverGroup{{i}});
  return groups;
}

SsnBench make_ssn_testbench(const SsnBenchSpec& spec) {
  return make_ssn_testbench(spec, driver_groups(spec));
}

SsnBench make_ssn_testbench(const SsnBenchSpec& spec,
                            const std::vector<DriverGroup>& groups) {
  spec.validate();
  SsnBench bench;
  Circuit& ckt = bench.circuit;

  const double vdd = spec.tech.vdd;
  const double cl = spec.load_cap > 0.0 ? spec.load_cap : spec.tech.load_cap;

  const NodeId gnd = kGround;
  const NodeId n_vdd = ckt.node(bench.vdd_node);
  const NodeId n_vssi = ckt.node(bench.vssi_node);
  const NodeId n_bulk = spec.bulk_to_vssi ? n_vssi : gnd;

  ckt.add_vsource("Vdd", n_vdd, gnd, waveform::Dc{vdd});

  // Ground return path: vssi --L(--R)-- 0 with the pad capacitance from
  // vssi to the true ground.
  if (spec.include_package_r && spec.package.resistance > 0.0) {
    const NodeId mid = ckt.node("vss_r");
    ckt.add_inductor(bench.inductor_name, n_vssi, mid, spec.package.inductance);
    ckt.add_resistor("Rgnd", mid, gnd, spec.package.resistance);
  } else {
    ckt.add_inductor(bench.inductor_name, n_vssi, gnd, spec.package.inductance);
  }
  if (spec.include_package_c && spec.package.capacitance > 0.0) {
    ckt.add_capacitor("Cpad", n_vssi, gnd, spec.package.capacitance);
  }

  // Shared device models: one instance serves all identical drivers.
  std::shared_ptr<const devices::MosfetModel> nmos;
  if (spec.pulldown_override) {
    nmos = spec.driver_width_mult == 1.0  // ssnlint-ignore(SSN-L001)
               ? spec.pulldown_override
               : std::make_shared<devices::ScaledMosfetModel>(
                     spec.pulldown_override->clone(), spec.driver_width_mult);
  } else {
    nmos = std::shared_ptr<const devices::MosfetModel>(
        spec.tech.make_golden(spec.golden, spec.driver_width_mult));
  }
  // Pull-up: the same golden device mirrored (the element handles PMOS
  // polarity); a 0.8 width factor reflects the usual Wp/Wn compromise.
  std::shared_ptr<const devices::MosfetModel> pmos;
  if (spec.include_pullup) {
    pmos = std::shared_ptr<const devices::MosfetModel>(
        std::make_shared<devices::ScaledMosfetModel>(
            spec.tech.make_golden(spec.golden, spec.driver_width_mult),
            0.8));
  }
  // A group of m drivers is one instance with the SPICE M-factor m.
  const auto scaled = [](const std::shared_ptr<const devices::MosfetModel>& model,
                         std::size_t m)
      -> std::shared_ptr<const devices::MosfetModel> {
    if (m == 1) return model;
    return std::make_shared<devices::ScaledMosfetModel>(model->clone(),
                                                        double(m));
  };

  bench.slope = vdd / spec.input_rise_time;
  bench.t_ramp_start = 0.0;
  bench.t_ramp_end = 0.0;

  const int total = spec.n_drivers + spec.n_quiet;
  bench.input_nodes.resize(std::size_t(total));
  bench.output_nodes.resize(std::size_t(total));
  std::size_t covered = 0;
  for (const DriverGroup& group : groups) {
    SSN_REQUIRE(!group.members.empty(), "make_ssn_testbench: empty driver group");
    const std::size_t m = group.members.size();
    const int first = group.members.front();
    SSN_REQUIRE(first >= 0 && first < total,
                "make_ssn_testbench: each driver must be in exactly one group");
    const auto [switching, delay] = signature(spec, first);
    const std::string idx = std::to_string(first);
    const NodeId n_in = ckt.node("in" + idx);
    const NodeId n_out = ckt.node("out" + idx);
    for (int i : group.members) {
      SSN_REQUIRE(i >= 0 && i < total && bench.input_nodes[std::size_t(i)].empty(),
                  "make_ssn_testbench: each driver must be in exactly one group");
      SSN_REQUIRE(signature(spec, i) == signature(spec, first),
                  "make_ssn_testbench: group members must share a signature");
      bench.input_nodes[std::size_t(i)] = "in" + idx;
      bench.output_nodes[std::size_t(i)] = "out" + idx;
    }
    covered += m;

    if (switching) {
      ckt.add_vsource("Vin" + idx, n_in, gnd,
                      waveform::Ramp{0.0, vdd, delay, spec.input_rise_time});
      bench.t_ramp_end = std::max(bench.t_ramp_end, delay + spec.input_rise_time);
    } else {
      ckt.add_vsource("Vin" + idx, n_in, gnd, waveform::Dc{0.0});
    }

    ckt.add_mosfet("Mn" + idx, n_out, n_in, n_vssi, n_bulk, scaled(nmos, m),
                   MosfetPolarity::kNmos);
    if (spec.include_pullup) {
      ckt.add_mosfet("Mp" + idx, n_out, n_in, n_vdd, n_vdd, scaled(pmos, m),
                     MosfetPolarity::kPmos);
    }
    ckt.add_capacitor("Cl" + idx, n_out, gnd, double(m) * cl);
    // DC anchor: keeps the output node's operating point defined even with
    // the pull-up omitted. 10 MOhm per driver draws a negligible ~0.2 uA
    // while still overpowering any residual subthreshold leakage.
    ckt.add_resistor("Ranchor" + idx, n_out, n_vdd, 1e7 / double(m));
  }
  SSN_REQUIRE(covered == std::size_t(total),
              "make_ssn_testbench: each driver must be in exactly one group");
  return bench;
}

}  // namespace ssnkit::circuit
