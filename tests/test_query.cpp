// CLI vs serve parity: one query asked through cli::run_cli and through
// serve::execute_request must come back with the same numbers and the same
// trust verdict, since both front ends answer it with analysis::run_query.
// sweep-n rows are compared bit for bit (the CLI's --out CSV carries 17
// significant digits, as does the JSON), estimate and mc to the digits the
// CLI prints.
#include "cli/commands.hpp"
#include "io/table.hpp"
#include "serve/handlers.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "sim/recovery.hpp"
#include "support/journal.hpp"
#include "verify/trust.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

using namespace ssnkit;
using serve::JsonValue;

std::string run_cli_ok(const std::vector<std::string>& argv) {
  std::ostringstream out, err;
  const int rc = cli::run_cli(argv, out, err);
  EXPECT_EQ(rc, 0) << err.str();
  return out.str();
}

JsonValue run_serve_ok(const std::string& line,
                       serve::CalibrationCache& calibrations) {
  const serve::RequestParse parsed = serve::parse_request(line);
  EXPECT_TRUE(parsed.ok) << parsed.error;
  const serve::JsonParse json = serve::parse_json(
      serve::execute_request(parsed.request, calibrations, nullptr));
  EXPECT_TRUE(json.ok) << json.error;
  return json.value;
}

double number(const JsonValue& object, const std::string& key) {
  const JsonValue* v = object.find(key);
  EXPECT_TRUE(v != nullptr && v->kind == JsonValue::Kind::kNumber) << key;
  return v != nullptr ? v->number : std::nan("");
}

std::string text(const JsonValue& object, const std::string& key) {
  const JsonValue* v = object.find(key);
  return v != nullptr && v->kind == JsonValue::Kind::kString ? v->string : "";
}

/// The CLI table's rows: "| name | value |" -> {name, value}.
std::map<std::string, std::string> table_rows(const std::string& out) {
  std::map<std::string, std::string> rows;
  std::istringstream in(out);
  std::string line;
  const auto trim = [](const std::string& s) {
    const auto b = s.find_first_not_of(' ');
    const auto e = s.find_last_not_of(' ');
    return b == std::string::npos ? std::string() : s.substr(b, e - b + 1);
  };
  while (std::getline(in, line)) {
    if (line.size() < 2 || line[0] != '|') continue;
    const auto mid = line.find('|', 1);
    const auto end = line.find('|', mid + 1);
    if (mid == std::string::npos || end == std::string::npos) continue;
    rows[trim(line.substr(1, mid - 1))] =
        trim(line.substr(mid + 1, end - mid - 1));
  }
  return rows;
}

/// The text after `prefix` on the line that starts with it ("" if none).
std::string line_after(const std::string& out, const std::string& prefix) {
  std::istringstream in(out);
  std::string line;
  while (std::getline(in, line))
    if (line.rfind(prefix, 0) == 0) return line.substr(prefix.size());
  return "";
}

/// Rebuild the TrustReport a rendered "trust" member describes.
verify::TrustReport trust_from(const JsonValue& fragment) {
  verify::TrustReport trust;
  const JsonValue* t = fragment.find("trust");
  EXPECT_TRUE(t != nullptr && t->is_object());
  if (t == nullptr) return trust;
  EXPECT_TRUE(verify::verdict_from_name(text(*t, "verdict"), trust.verdict));
  const auto real = [&](const std::string& key) {
    const JsonValue* v = t->find(key);
    return v != nullptr && v->kind == JsonValue::Kind::kNumber ? v->number
                                                              : std::nan("");
  };
  trust.residual = real("residual");
  trust.cond_estimate = real("cond");
  trust.ci95 = real("ci95");
  if (const JsonValue* r = t->find("refinements"))
    trust.refinements = std::size_t(r->number);
  if (const JsonValue* notes = t->find("notes"))
    for (const JsonValue& n : notes->elements) trust.notes.push_back(n.string);
  return trust;
}

struct Case {
  std::vector<std::string> cli;  ///< CLI options after the command
  std::string json;              ///< the same query's request members
};

TEST(QueryParity, EstimateGivesTheSameNumbersAndVerdict) {
  serve::CalibrationCache calibrations;
  const std::vector<Case> cases = {
      {{"--n", "8"}, R"("n":8)"},
      {{"--n", "8", "--no-c"}, R"("n":8,"include_c":false)"},
      {{"--n", "4", "--c", "0"}, R"("n":4,"c":0)"},
      {{"--n", "24", "--tech", "350nm", "--golden", "bsim", "--package", "qfp",
        "--pads", "2", "--l", "3e-9", "--c", "2e-12", "--tr", "3e-10"},
       R"("n":24,"tech":"350nm","golden":"bsim","package":"qfp","pads":2,)"
       R"("l":3e-9,"c":2e-12,"tr":3e-10)"},
  };
  for (const Case& c : cases) {
    for (const bool sim : {false, true}) {
      std::vector<std::string> argv = {"estimate"};
      argv.insert(argv.end(), c.cli.begin(), c.cli.end());
      if (sim) argv.push_back("--verify");
      const std::string line = R"({"cmd":"estimate",)" + c.json +
                               (sim ? R"(,"sim":true})" : "}");
      SCOPED_TRACE(line);
      const std::string out = run_cli_ok(argv);
      const JsonValue r = run_serve_ok(line, calibrations);
      const auto rows = table_rows(out);

      const bool lc = text(r, "model") == "lc";
      EXPECT_EQ(rows.count("Table 1 case"), lc ? 1u : 0u);
      const std::string vmax_row = lc ? "max SSN (LC model)" : "max SSN (Eqn 7)";
      EXPECT_EQ(rows.at(vmax_row), io::si_format(number(r, "v_max"), 5) + "V");
      if (lc) {
        EXPECT_EQ(rows.at("Table 1 case"), text(r, "case"));
        EXPECT_EQ(rows.at("zeta"), io::si_format(number(r, "zeta"), 4));
      }
      EXPECT_EQ(rows.at("beta = N*L*S"), io::si_format(number(r, "beta"), 4));

      if (sim) {
        EXPECT_EQ(line_after(out, "simulated max SSN: ")
                      .rfind(io::si_format(number(r, "v_max_sim"), 5) + "V (", 0),
                  0u)
            << out;
        const std::string fidelity = text(r, "fidelity");
        EXPECT_EQ(line_after(out, "fidelity: "),
                  fidelity == "full-device" ? "" : fidelity);
      } else {
        EXPECT_EQ(r.find("v_max_sim"), nullptr);
        EXPECT_EQ(out.find("simulated max SSN"), std::string::npos);
      }
      // The whole trust line, not just its verdict word.
      EXPECT_EQ(line_after(out, "trust: "), trust_from(r).summary()) << out;
    }
  }
}

TEST(QueryParity, MonteCarloGivesTheSameNumbersAndVerdict) {
  serve::CalibrationCache calibrations;
  const std::vector<Case> cases = {
      {{"--samples", "500", "--seed", "9"}, R"("samples":500,"seed":9)"},
      {{"--samples", "400", "--no-c", "--n", "16", "--threads", "3"},
       R"("samples":400,"include_c":false,"n":16)"},
      {{"--samples", "300", "--c", "0", "--golden", "bsim"},
       R"("samples":300,"c":0,"golden":"bsim")"},
  };
  for (const Case& c : cases) {
    std::vector<std::string> argv = {"mc"};
    argv.insert(argv.end(), c.cli.begin(), c.cli.end());
    const std::string line = R"({"cmd":"mc",)" + c.json + "}";
    SCOPED_TRACE(line);
    const auto rows = table_rows(run_cli_ok(argv));
    const JsonValue r = run_serve_ok(line, calibrations);
    const auto si4 = [&](const std::string& key) {
      return io::si_format(number(r, key), 4);
    };
    const int samples = int(number(r, "samples"));
    EXPECT_EQ(rows.at("samples"),
              std::to_string(samples) + "/" + std::to_string(samples));
    EXPECT_EQ(rows.at("mean"), si4("mean"));
    EXPECT_EQ(rows.at("sigma"), si4("stddev"));
    EXPECT_EQ(rows.at("min / max"), si4("min") + " / " + si4("max"));
    EXPECT_EQ(rows.at("p95"), si4("p95"));
    EXPECT_EQ(rows.at("p99"), si4("p99"));
    EXPECT_EQ(rows.at("95% CI (mean +/-)"), si4("ci95"));
    EXPECT_EQ(rows.at("damping-region flips"),
              io::si_format(100.0 * number(r, "region_flip_fraction"), 3) + "%");
    // A completed closed-form population is verified, its error bar attached.
    const verify::TrustReport trust = trust_from(r);
    EXPECT_EQ(trust.verdict, verify::Verdict::kVerified);
    EXPECT_EQ(rows.at("95% CI (mean +/-)"), io::si_format(trust.ci95, 4));
  }
}

TEST(QueryParity, SweepNRowsAreBitIdentical) {
  serve::CalibrationCache calibrations;
  const std::string path = "query_parity_sweep.csv";
  const std::vector<Case> cases = {
      {{"--max-n", "5"}, R"("max_n":5)"},
      {{"--max-n", "4", "--no-c"}, R"("max_n":4,"include_c":false)"},
      {{"--max-n", "3", "--c", "0"}, R"("max_n":3,"c":0)"},
      {{"--max-n", "6", "--tech", "250nm", "--package", "qfp", "--l", "4e-9",
        "--threads", "2"},
       R"("max_n":6,"tech":"250nm","package":"qfp","l":4e-9)"},
  };
  for (const Case& c : cases) {
    std::remove(path.c_str());
    std::vector<std::string> argv = {"sweep-n", "--out", path};
    argv.insert(argv.end(), c.cli.begin(), c.cli.end());
    const std::string line = R"({"cmd":"sweep-n",)" + c.json + "}";
    SCOPED_TRACE(line);
    const std::string out = run_cli_ok(argv);
    const JsonValue r = run_serve_ok(line, calibrations);

    std::ifstream csv(path);
    std::string row;
    ASSERT_TRUE(std::getline(csv, row));
    EXPECT_EQ(row, "n,sim,this_work,vemuru,song,senthinathan,fidelity");
    const JsonValue* json_rows = r.find("rows");
    ASSERT_NE(json_rows, nullptr);
    std::size_t i = 0;
    for (; std::getline(csv, row); ++i) {
      ASSERT_LT(i, json_rows->elements.size());
      const JsonValue& jr = json_rows->elements[i];
      std::istringstream cells(row);
      std::string cell;
      for (const char* key :
           {"n", "sim", "this_work", "vemuru", "song", "senthinathan"}) {
        ASSERT_TRUE(std::getline(cells, cell, ','));
        EXPECT_EQ(support::double_bits(std::strtod(cell.c_str(), nullptr)),
                  support::double_bits(number(jr, key)))
            << key << " row " << i;
      }
      ASSERT_TRUE(std::getline(cells, cell, ','));
      EXPECT_EQ(sim::to_string(sim::Fidelity(std::stoi(cell))),
                text(jr, "fidelity"));
    }
    EXPECT_EQ(i, json_rows->elements.size());

    // Verdict: the CLI flags a non-full-fidelity sweep with its resilience
    // line; serve says so in its trust verdict.
    const bool all_full =
        std::size_t(number(r, "full_fidelity")) == json_rows->elements.size();
    EXPECT_EQ(out.find("# resilience:") == std::string::npos, all_full);
    if (all_full) {
      EXPECT_EQ(trust_from(r).verdict, verify::Verdict::kVerified);
    }
  }
  std::remove(path.c_str());
}

}  // namespace
