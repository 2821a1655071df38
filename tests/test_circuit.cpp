// Circuit construction, node management, and the netlist front end.
#include "circuit/circuit.hpp"
#include "circuit/netlist.hpp"
#include "circuit/testbench.hpp"
#include "sim/engine.hpp"

#include <gtest/gtest.h>

namespace {

using namespace ssnkit::circuit;

TEST(Circuit, GroundAliases) {
  Circuit ckt;
  EXPECT_EQ(ckt.node("0"), kGround);
  EXPECT_EQ(ckt.node("gnd"), kGround);
  EXPECT_EQ(ckt.node("GND"), kGround);
}

TEST(Circuit, NodeCreationAndLookup) {
  Circuit ckt;
  const NodeId a = ckt.node("a");
  EXPECT_EQ(ckt.node("a"), a);  // idempotent
  EXPECT_EQ(ckt.find_node("a"), a);
  EXPECT_TRUE(ckt.has_node("a"));
  EXPECT_FALSE(ckt.has_node("b"));
  EXPECT_THROW(ckt.find_node("b"), std::out_of_range);
  EXPECT_EQ(ckt.node_name(a), "a");
  EXPECT_EQ(ckt.node_count(), 2);
}

TEST(Circuit, DuplicateElementNameThrows) {
  Circuit ckt;
  ckt.add_resistor("R1", ckt.node("a"), kGround, 1e3);
  EXPECT_THROW(ckt.add_resistor("R1", ckt.node("b"), kGround, 1e3),
               std::invalid_argument);
}

TEST(Circuit, FinalizeAssignsBranches) {
  Circuit ckt;
  ckt.add_resistor("R1", ckt.node("a"), kGround, 1e3);
  ckt.add_vsource("V1", ckt.node("a"), kGround, ssnkit::waveform::Dc{1.0});
  ckt.add_inductor("L1", ckt.node("a"), ckt.node("b"), 1e-9);
  const int unknowns = ckt.finalize();
  EXPECT_EQ(ckt.branch_count(), 2);      // V1 + L1
  EXPECT_EQ(unknowns, 2 + 2);            // nodes a,b + two branches
  const Element* v1 = ckt.find_element("V1");
  ASSERT_NE(v1, nullptr);
  EXPECT_GE(ckt.branch_unknown_index(*v1), 2);
  const Element* r1 = ckt.find_element("R1");
  EXPECT_THROW(ckt.branch_unknown_index(*r1), std::invalid_argument);
}

TEST(Circuit, ElementParameterValidation) {
  Circuit ckt;
  EXPECT_THROW(ckt.add_resistor("R1", ckt.node("a"), kGround, 0.0),
               std::invalid_argument);
  EXPECT_THROW(ckt.add_capacitor("C1", ckt.node("a"), kGround, -1e-12),
               std::invalid_argument);
  EXPECT_THROW(ckt.add_inductor("L1", ckt.node("a"), kGround, 0.0),
               std::invalid_argument);
  EXPECT_THROW(ckt.add_mosfet("M1", 1, 1, 0, 0, nullptr), std::invalid_argument);
}

// --- SPICE numbers -----------------------------------------------------------

TEST(SpiceNumber, SuffixScales) {
  EXPECT_DOUBLE_EQ(parse_spice_number("10p"), 10e-12);
  EXPECT_DOUBLE_EQ(parse_spice_number("5n"), 5e-9);
  EXPECT_DOUBLE_EQ(parse_spice_number("3.3u"), 3.3e-6);
  EXPECT_DOUBLE_EQ(parse_spice_number("10m"), 10e-3);
  EXPECT_DOUBLE_EQ(parse_spice_number("1k"), 1e3);
  EXPECT_DOUBLE_EQ(parse_spice_number("2MEG"), 2e6);
  EXPECT_DOUBLE_EQ(parse_spice_number("2meg"), 2e6);
  EXPECT_DOUBLE_EQ(parse_spice_number("1g"), 1e9);
  EXPECT_DOUBLE_EQ(parse_spice_number("4f"), 4e-15);
  EXPECT_DOUBLE_EQ(parse_spice_number("1.5"), 1.5);
  EXPECT_DOUBLE_EQ(parse_spice_number("-3e-9"), -3e-9);
}

TEST(SpiceNumber, UnitNamesTolerated) {
  EXPECT_DOUBLE_EQ(parse_spice_number("10pF"), 10e-12);
  EXPECT_DOUBLE_EQ(parse_spice_number("5nH"), 5e-9);
  EXPECT_DOUBLE_EQ(parse_spice_number("2V"), 2.0);
}

TEST(SpiceNumber, MalformedThrows) {
  EXPECT_THROW(parse_spice_number(""), std::invalid_argument);
  EXPECT_THROW(parse_spice_number("abc"), std::invalid_argument);
  EXPECT_THROW(parse_spice_number("1.5q"), std::invalid_argument);
}

// --- netlist -----------------------------------------------------------------

TEST(Netlist, ParsesRlcDivider) {
  const auto parsed = parse_netlist(R"(simple divider
V1 in 0 DC 2.0
R1 in out 1k
R2 out 0 1k
C1 out 0 10p
.tran 1p 1n
.end
)");
  EXPECT_EQ(parsed.title, "simple divider");
  ASSERT_TRUE(parsed.tran.has_value());
  EXPECT_DOUBLE_EQ(parsed.tran->tstep, 1e-12);
  EXPECT_DOUBLE_EQ(parsed.tran->tstop, 1e-9);
  EXPECT_TRUE(parsed.circuit.has_node("in"));
  EXPECT_TRUE(parsed.circuit.has_node("out"));
  EXPECT_NE(parsed.circuit.find_element("C1"), nullptr);
}

TEST(Netlist, ParsesSourceShapes) {
  const auto parsed = parse_netlist(R"(
V1 a 0 RAMP(0 1.8 0 0.1n)
V2 b 0 PULSE(0 1 0 10p 10p 1n 2n)
V3 c 0 PWL(0 0, 1n 1, 2n 0)
V4 d 0 SIN(0 1 1g)
V5 e 0 1.8
I1 f 0 DC 1m
)");
  const auto* v1 = dynamic_cast<const VoltageSource*>(parsed.circuit.find_element("V1"));
  ASSERT_NE(v1, nullptr);
  EXPECT_TRUE(std::holds_alternative<ssnkit::waveform::Ramp>(v1->spec()));
  const auto* v5 = dynamic_cast<const VoltageSource*>(parsed.circuit.find_element("V5"));
  ASSERT_NE(v5, nullptr);
  EXPECT_TRUE(std::holds_alternative<ssnkit::waveform::Dc>(v5->spec()));
  EXPECT_NE(parsed.circuit.find_element("I1"), nullptr);
}

TEST(Netlist, ParsesDevicesAndModels) {
  const auto parsed = parse_netlist(R"(
.model NDRV ALPHA VDD=1.8 VT0=0.45 ALPHA=1.3 ID0=6.5m VD0=0.9 GAMMA=0.35
.model PDRV ALPHA VDD=1.8 VT0=0.45 ALPHA=1.3 ID0=5m VD0=0.9 PMOS
.model LIN ASDM K=5.8m LAMBDA=1.28 VX=0.61
M1 out in vssi 0 NDRV W=2
M2 out in vdd vdd PDRV
M3 out2 in vssi 0 LIN
D1 0 vssi IS=1e-14 N=1
C1 out 0 10p IC=1.8
L1 vssi 0 5n
)");
  EXPECT_NE(parsed.circuit.find_element("M1"), nullptr);
  EXPECT_NE(parsed.circuit.find_element("M2"), nullptr);
  EXPECT_NE(parsed.circuit.find_element("D1"), nullptr);
  const auto* c1 = dynamic_cast<const Capacitor*>(parsed.circuit.find_element("C1"));
  ASSERT_NE(c1, nullptr);
  ASSERT_TRUE(c1->initial_condition().has_value());
  EXPECT_DOUBLE_EQ(*c1->initial_condition(), 1.8);
}

TEST(Netlist, CommentsAndBlanksIgnored) {
  const auto parsed = parse_netlist(R"(* a title comment
* full comment
R1 a 0 1k ; trailing comment
R2 a 0 2k // another
)");
  EXPECT_NE(parsed.circuit.find_element("R1"), nullptr);
  EXPECT_NE(parsed.circuit.find_element("R2"), nullptr);
}

TEST(Netlist, ErrorsCarryLineNumbers) {
  try {
    parse_netlist("R1 a 0 1k\nQ1 a b c\n");
    FAIL() << "expected parse error";
  } catch (const std::invalid_argument& e) {
    // Diagnostics render as file:line:column.
    EXPECT_NE(std::string(e.what()).find(":2:"), std::string::npos);
  }
}

TEST(Netlist, UnknownModelThrows) {
  EXPECT_THROW(parse_netlist("M1 d g s 0 NOPE\n"), std::invalid_argument);
}

TEST(Netlist, MissingFieldsThrow) {
  EXPECT_THROW(parse_netlist("R1 a 0\n"), std::invalid_argument);
  EXPECT_THROW(parse_netlist("V1 a 0 RAMP(0 1)\n"), std::invalid_argument);
  EXPECT_THROW(parse_netlist(".tran 1p\n"), std::invalid_argument);
}

// --- testbench ----------------------------------------------------------------

TEST(Testbench, BuildsExpectedTopology) {
  SsnBenchSpec spec;
  spec.n_drivers = 4;
  const SsnBench bench = make_ssn_testbench(spec);
  // Four identical drivers are one group: one M-scaled driver named after
  // its first member, with every driver's node mapped onto the group's.
  EXPECT_EQ(bench.input_nodes.size(), 4u);
  EXPECT_EQ(bench.output_nodes.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(bench.input_nodes[i], "in0");
    EXPECT_EQ(bench.output_nodes[i], "out0");
  }
  EXPECT_TRUE(bench.circuit.has_node("vssi"));
  EXPECT_NE(bench.circuit.find_element("Lgnd"), nullptr);
  EXPECT_NE(bench.circuit.find_element("Cpad"), nullptr);
  EXPECT_NE(bench.circuit.find_element("Mn0"), nullptr);
  EXPECT_NE(bench.circuit.find_element("Mp0"), nullptr);
  EXPECT_EQ(bench.circuit.find_element("Mn1"), nullptr);
  EXPECT_FALSE(bench.circuit.has_node("out3"));
  // gnd, vdd, vssi, in0, out0.
  EXPECT_EQ(bench.circuit.node_count(), 5);
  EXPECT_DOUBLE_EQ(bench.t_ramp_end, spec.input_rise_time);
  EXPECT_NEAR(bench.slope, spec.tech.vdd / spec.input_rise_time, 1e-3);

  // The expanded reference keeps one driver per group: Mp3 exists there.
  const SsnBench expanded =
      make_ssn_testbench(spec, expanded_driver_groups(spec));
  EXPECT_NE(expanded.circuit.find_element("Mp3"), nullptr);
  EXPECT_EQ(expanded.output_nodes[3], "out3");
}

TEST(Testbench, OptionsChangeTopology) {
  SsnBenchSpec spec;
  spec.n_drivers = 2;
  spec.include_package_c = false;
  spec.include_pullup = false;
  spec.include_package_r = true;
  const SsnBench bench = make_ssn_testbench(spec);
  EXPECT_EQ(bench.circuit.find_element("Cpad"), nullptr);
  EXPECT_EQ(bench.circuit.find_element("Mp0"), nullptr);
  EXPECT_NE(bench.circuit.find_element("Rgnd"), nullptr);
}

TEST(Testbench, QuietDriversAndStagger) {
  SsnBenchSpec spec;
  spec.n_drivers = 4;
  spec.n_quiet = 2;
  spec.stagger = {0.0, 50e-12, 0.0, 50e-12};
  const SsnBench bench = make_ssn_testbench(spec);
  EXPECT_EQ(bench.input_nodes.size(), 6u);
  EXPECT_NEAR(bench.t_ramp_end, 50e-12 + spec.input_rise_time, 1e-18);

  // Quiet drivers and each distinct delay stay in groups of their own.
  const auto groups = driver_groups(spec);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].members, (std::vector<int>{0, 2}));
  EXPECT_EQ(groups[1].members, (std::vector<int>{1, 3}));
  EXPECT_EQ(groups[2].members, (std::vector<int>{4, 5}));
  EXPECT_EQ(bench.output_nodes,
            (std::vector<std::string>{"out0", "out1", "out0", "out1", "out4",
                                      "out4"}));
  EXPECT_NE(bench.circuit.find_element("Vin1"), nullptr);
  EXPECT_NE(bench.circuit.find_element("Vin4"), nullptr);
  EXPECT_EQ(bench.circuit.find_element("Vin2"), nullptr);
}

TEST(Testbench, SpecValidation) {
  SsnBenchSpec spec;
  spec.n_drivers = 0;
  EXPECT_THROW(make_ssn_testbench(spec), std::invalid_argument);
  spec = {};
  spec.input_rise_time = 0.0;
  EXPECT_THROW(make_ssn_testbench(spec), std::invalid_argument);
  spec = {};
  spec.stagger = {1e-12};  // wrong length for 8 drivers
  EXPECT_THROW(make_ssn_testbench(spec), std::invalid_argument);
}


TEST(Netlist, SubcircuitExpansion) {
  const auto parsed = parse_netlist(R"(* subckt demo
.subckt RCDIV in out
R1 in out 1k
R2 out 0 1k
C1 out 0 1p
.ends
V1 top 0 DC 2.0
X1 top mid RCDIV
X2 mid bot RCDIV
Rload bot 0 1meg
)");
  // Expanded names are prefixed with the instance.
  EXPECT_NE(parsed.circuit.find_element("X1.R1"), nullptr);
  EXPECT_NE(parsed.circuit.find_element("X2.C1"), nullptr);
  EXPECT_EQ(parsed.circuit.find_element("R1"), nullptr);
  // Ports connect across instances: X1's "out" is the global "mid".
  EXPECT_TRUE(parsed.circuit.has_node("mid"));
  EXPECT_TRUE(parsed.circuit.has_node("X1.out") == false);
}

TEST(Netlist, SubcircuitDcSolvesCorrectly) {
  auto parsed = parse_netlist(R"(
.subckt HALVER in out
Ra in out 1k
Rb out 0 1k
.ends
V1 a 0 DC 4.0
X1 a b HALVER
)");
  const auto dc = ssnkit::sim::dc_operating_point(parsed.circuit);
  EXPECT_NEAR(dc.voltage(parsed.circuit, "b"), 2.0, 1e-9);
}

TEST(Netlist, NestedSubcircuits) {
  auto parsed = parse_netlist(R"(
.subckt UNIT a b
Ru a b 100
.ends
.subckt PAIR x y
X1 x m UNIT
X2 m y UNIT
.ends
V1 p 0 DC 1.0
Xtop p q PAIR
Rq q 0 200
)");
  // 200 Ohm of subcircuit resistance + 200 load: q = 0.5 V.
  const auto dc = ssnkit::sim::dc_operating_point(parsed.circuit);
  EXPECT_NEAR(dc.voltage(parsed.circuit, "q"), 0.5, 1e-9);
  EXPECT_NE(parsed.circuit.find_element("Xtop.X1.Ru"), nullptr);
}

TEST(Netlist, SubcircuitErrors) {
  EXPECT_THROW(parse_netlist("X1 a b NOPE\n"), std::invalid_argument);
  EXPECT_THROW(parse_netlist(".subckt A x\nR1 x 0 1k\n"),
               std::invalid_argument);  // unterminated
  EXPECT_THROW(parse_netlist(".ends\n"), std::invalid_argument);
  EXPECT_THROW(parse_netlist(
                   ".subckt A x\nR1 x 0 1k\n.ends\nX1 a b A\n"),
               std::invalid_argument);  // port count mismatch
  // Self-recursive subcircuit trips the depth limit.
  EXPECT_THROW(parse_netlist(
                   ".subckt A x\nX1 x A\n.ends\nX1 a A\n"),
               std::invalid_argument);
}

TEST(Netlist, GroundIsGlobalInsideSubcircuits) {
  auto parsed = parse_netlist(R"(
.subckt TIE a
Rt a 0 50
.ends
V1 n 0 DC 1.0
X1 n TIE
)");
  const auto dc = ssnkit::sim::dc_operating_point(parsed.circuit);
  // The subcircuit's "0" is the real ground: current flows, V1 sees 20 mA.
  const auto* v1 =
      dynamic_cast<const VoltageSource*>(parsed.circuit.find_element("V1"));
  ASSERT_NE(v1, nullptr);
  const int idx = parsed.circuit.branch_unknown_index(*v1);
  EXPECT_NEAR(dc.solution[std::size_t(idx)], -1.0 / 50.0, 1e-9);
}

TEST(Netlist, MalformedInputsThrowNotCrash) {
  // A grab-bag of malformed netlists: every one must throw
  // std::invalid_argument (never crash, never silently succeed).
  const char* cases[] = {
      "R1\n",
      "R1 a\n",
      "Rname a 0 notanumber\n",
      "C1 a 0 1p IC\n",
      "C1 a 0 1p IC=\n",
      "V1 a 0 PULSE(1 2 3)\n",
      "V1 a 0 SIN()\n",
      "M1 d g s b\n",
      "K1 L1\n",
      "X1\n",
      ".model\n",
      ".model FOO\n",
      ".model FOO WEIRD\n",
      ".model FOO ASDM K=\n",
      ".tran\n",
      ".bogus directive\n",
      ".subckt\n",
      ".subckt ONLYNAME\n",
      "L1 a 0 5n\nK1 L1 L1 0.5\nK2 L1 LX 0.5\n",
  };
  for (const char* text : cases) {
    EXPECT_THROW(parse_netlist(text), std::invalid_argument) << text;
  }
}

TEST(Netlist, DegenerateButValidInputs) {
  // Things that look odd but are legal.
  EXPECT_NO_THROW(parse_netlist(""));
  EXPECT_NO_THROW(parse_netlist("\n\n\n"));
  EXPECT_NO_THROW(parse_netlist("* only a comment\n"));
  EXPECT_NO_THROW(parse_netlist("just a title line\n"));
  // Binary garbage on the first line is (by SPICE convention) the title.
  EXPECT_NO_THROW(parse_netlist("\x01\x02 binary garbage\n.tran 1p 1n\n"));
  EXPECT_NO_THROW(parse_netlist(".end\n"));
  // Cards after .end are ignored.
  const auto parsed = parse_netlist("R1 a 0 1k\n.end\nR2 a 0 1k\n");
  EXPECT_NE(parsed.circuit.find_element("R1"), nullptr);
  EXPECT_EQ(parsed.circuit.find_element("R2"), nullptr);
}

}  // namespace
