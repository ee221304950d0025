#include "stat/bsmp_stat.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string_view>
#include <vector>

#include "analytic/advisor.hpp"
#include "analytic/tradeoff.hpp"

namespace bsmp::stat {

namespace json = core::json;

namespace {

std::string basename_of(const std::string& path) {
  std::size_t slash = path.find_last_of("/\\");
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

std::string fmt(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string fmt_ns(double ns) {
  char buf[48];
  if (ns >= 1e9)
    std::snprintf(buf, sizeof buf, "%.3f s", ns / 1e9);
  else if (ns >= 1e6)
    std::snprintf(buf, sizeof buf, "%.3f ms", ns / 1e6);
  else if (ns >= 1e3)
    std::snprintf(buf, sizeof buf, "%.3f us", ns / 1e3);
  else
    std::snprintf(buf, sizeof buf, "%.0f ns", ns);
  return buf;
}

/// A google-benchmark row's identity: the benchmark it measures
/// (run_name) and how well it stands for that benchmark — 3 for the
/// median aggregate, 2 for the mean, 1 for an iteration row, 0 for a
/// spread aggregate (stddev, cv) that is never read as a value.
/// Producers that omit run_name / aggregate_name are read from the
/// name suffix.
struct RowId {
  std::string run;
  int rank = 1;
};

RowId row_id(const json::Value& b) {
  RowId id{b["run_name"].as_string()};
  std::string agg = b["aggregate_name"].as_string();
  if (id.run.empty()) {
    const std::string& name = b["name"].as_string();
    id.run = name;
    for (std::string_view suffix : {"_median", "_mean", "_stddev", "_cv"}) {
      if (name.size() > suffix.size() && name.ends_with(suffix)) {
        id.run = name.substr(0, name.size() - suffix.size());
        agg = suffix.substr(1);
        break;
      }
    }
  }
  if (agg == "median")
    id.rank = 3;
  else if (agg == "mean")
    id.rank = 2;
  else if (!agg.empty() || b["run_type"].as_string() == "aggregate")
    id.rank = 0;
  return id;
}

/// The row that stands for benchmark `run`: its median aggregate, else
/// its mean, else its (first) iteration row; null when the document
/// does not measure `run`. A repetitions>1 baseline holds aggregate
/// rows while a fresh single-rep run holds only the iteration row, so
/// gates written against the run name read both.
const json::Value& find_benchmark(const json::Value& root,
                                  const std::string& run) {
  static const json::Value kNull;
  const json::Value* best = &kNull;
  int best_rank = 0;
  for (const auto& b : root["benchmarks"].items()) {
    const RowId id = row_id(b);
    if (id.run == run && id.rank > best_rank) {
      best = &b;
      best_rank = id.rank;
    }
  }
  return *best;
}

struct Failure {
  std::string what;
};

/// The diff accumulates its report here so --report can tee it to a
/// file verbatim.
struct DiffState {
  std::ostringstream report;
  std::vector<Failure> failures;
  bool refused_drift = false;

  void fail(const std::string& what) {
    failures.push_back({what});
    report << "FAIL: " << what << "\n";
  }
};

// ---- tolerance spec -------------------------------------------------

struct RatioGate {
  std::string label;
  std::string num, den;            ///< benchmark names
  std::string num_metric, den_metric;
  double min = 0;
  double min_cpus = 0;    ///< gate applies only when cpus >= this
  double den_floor = 0;   ///< clamp denominator up (warm-up gates)
};

struct DriftSpec {
  std::string metric;
  double rel_tol = 0;
  bool lower_is_better = false;
};

struct FileSpec {
  std::vector<RatioGate> ratio_gates;
  std::vector<DriftSpec> drift;
};

bool load_spec_for(const std::string& tolerances_path,
                   const std::string& file_key, FileSpec& out,
                   std::string& error) {
  json::Parsed p = json::parse_file(tolerances_path);
  if (!p.ok) {
    error = p.error;
    return false;
  }
  const json::Value& files = p.value["files"];
  const json::Value& spec = files[file_key];
  if (spec.is_null()) return true;  // no gates declared for this file
  for (const auto& g : spec["ratio_gates"].items()) {
    RatioGate rg;
    rg.label = g["label"].as_string();
    rg.num = g["num"].as_string();
    rg.den = g["den"].as_string();
    std::string metric = g["metric"].as_string();
    rg.num_metric = g.has("num_metric") ? g["num_metric"].as_string() : metric;
    rg.den_metric = g.has("den_metric") ? g["den_metric"].as_string() : metric;
    rg.min = g["min"].as_number();
    rg.min_cpus = g["min_cpus"].as_number(0);
    rg.den_floor = g["den_floor"].as_number(0);
    out.ratio_gates.push_back(std::move(rg));
  }
  for (const auto& d : spec["drift"].items()) {
    DriftSpec ds;
    ds.metric = d["metric"].as_string();
    ds.rel_tol = d["rel_tol"].as_number();
    ds.lower_is_better = d["lower_is_better"].as_bool(false);
    out.drift.push_back(std::move(ds));
  }
  return true;
}

// ---- metrics-artifact helpers --------------------------------------

std::uint64_t attribution_dropped(const json::Value& pass) {
  return static_cast<std::uint64_t>(
      pass["attribution"]["dropped"].as_number(0));
}

bool attribution_trusted(const json::Value& pass) {
  const json::Value& at = pass["attribution"];
  if (at.is_null()) return true;  // nothing to distrust
  return at["trusted"].as_number(1) != 0;
}

std::uint64_t total_dropped(const Artifact& a) {
  std::uint64_t n = static_cast<std::uint64_t>(
      a.root["manifest"]["trace_dropped"].as_number(0));
  for (const auto& pass : a.root["passes"].items())
    n = std::max(n, attribution_dropped(pass));
  return n;
}

void show_attribution(const json::Value& at, std::ostream& os) {
  double total = at["total_self_ns"].as_number();
  os << "    attribution: " << fmt(at["spans"].as_number()) << " spans, "
     << "self-time " << fmt_ns(total) << ", critical path "
     << fmt_ns(at["critical_path_ns"].as_number());
  if (at["trusted"].as_number(1) == 0)
    os << "  [UNTRUSTED: " << fmt(at["dropped"].as_number())
       << " dropped]";
  os << "\n";
  for (const auto& [mech, slice] : at["mechanisms"].members()) {
    double self = slice["self_ns"].as_number();
    char pct[16];
    std::snprintf(pct, sizeof pct, "%5.1f%%",
                  total > 0 ? 100.0 * self / total : 0.0);
    os << "      " << pct << "  " << mech << "  " << fmt_ns(self) << "  ("
       << fmt(slice["spans"].as_number()) << " spans)\n";
  }
  const json::Value& phases = at["phases"];
  if (!phases.members().empty()) {
    os << "      by phase:\n";
    for (const auto& [phase, row] : phases.members()) {
      os << "        " << phase << ":";
      for (const auto& [mech, ns] : row.members())
        os << " " << mech << "=" << fmt_ns(ns.as_number());
      os << "\n";
    }
  }
}

}  // namespace

LoadResult load_artifact(const std::string& path) {
  LoadResult out;
  json::Parsed p = json::parse_file(path);
  if (!p.ok) {
    out.error = p.error;
    return out;
  }
  Artifact& a = out.artifact;
  a.root = std::move(p.value);
  a.path = path;
  const std::string& schema = a.root["schema"].as_string();
  if (schema.rfind("bsmp-metrics-", 0) == 0) {
    a.kind = ArtifactKind::kMetrics;
    a.schema = schema;
    a.name = a.root["name"].as_string();
    a.hostname = a.root["manifest"]["hostname"].as_string();
    a.num_cpus = static_cast<int>(a.root["manifest"]["num_cpus"].as_number(0));
  } else if (a.root.has("context") && a.root.has("benchmarks")) {
    a.kind = ArtifactKind::kGoogleBenchmark;
    a.schema = "google-benchmark";
    a.name = a.root["context"]["executable"].as_string();
    a.hostname = a.root["context"]["host_name"].as_string();
    a.num_cpus =
        static_cast<int>(a.root["context"]["num_cpus"].as_number(0));
  }
  out.ok = true;
  return out;
}

bool comparable_hardware(const Artifact& a, const Artifact& b) {
  if (a.hostname.empty() || b.hostname.empty()) return false;
  if (a.num_cpus <= 0 || b.num_cpus <= 0) return false;
  return a.hostname == b.hostname && a.num_cpus == b.num_cpus;
}

int run_show(const Artifact& a, std::ostream& os) {
  os << basename_of(a.path) << ": " << a.schema;
  if (!a.name.empty()) os << " '" << a.name << "'";
  os << "\n";
  if (a.kind == ArtifactKind::kGoogleBenchmark) {
    const json::Value& ctx = a.root["context"];
    os << "  host " << a.hostname << ", " << a.num_cpus << " cpus, "
       << ctx["library_build_type"].as_string() << " build\n";
    for (const auto& b : a.root["benchmarks"].items()) {
      os << "  " << b["name"].as_string() << ": "
         << fmt(b["real_time"].as_number()) << " "
         << b["time_unit"].as_string();
      for (const char* extra :
           {"vertices_per_sec", "scenarios_per_sec", "points_per_sec"})
        if (b.has(extra))
          os << ", " << extra << " " << fmt(b[extra].as_number());
      os << "\n";
    }
    return kExitOk;
  }
  if (a.kind != ArtifactKind::kMetrics) {
    os << "  (unrecognized artifact; no report)\n";
    return kExitOk;
  }

  const json::Value& man = a.root["manifest"];
  os << "  host " << (a.hostname.empty() ? "?" : a.hostname) << ", "
     << a.num_cpus << " cpus, " << man["build_type"].as_string()
     << " build, git " << man["git_sha"].as_string() << ", simd "
     << man["simd_isa"].as_string() << "\n";

  std::uint64_t drops = total_dropped(a);
  if (drops > 0) {
    os << "\n"
       << "  ********************************************************\n"
       << "  *  WARNING: " << drops << " trace events DROPPED (ring buffer "
       << "full).\n"
       << "  *  Attribution below UNDER-COUNTS and must not be used\n"
       << "  *  to gate regressions. Re-run with a larger\n"
       << "  *  BSMP_TRACE_BUFFER for trustworthy numbers.\n"
       << "  ********************************************************\n\n";
  }

  os << "  speedup " << fmt(a.root["speedup"].as_number()) << "\n";
  for (const auto& pass : a.root["passes"].items()) {
    os << "  pass threads=" << fmt(pass["threads"].as_number()) << "  "
       << fmt(pass["seconds"].as_number()) << " s, "
       << fmt(pass["sweeps"].items().size()) << " sweeps\n";
    const json::Value& at = pass["attribution"];
    if (!at.is_null()) {
      show_attribution(at, os);
      const json::Value& cal = at["calibration_points"];
      if (!cal.items().empty()) {
        os << "    calibration points (" << cal.items().size() << "):\n";
        for (const auto& c : cal.items()) {
          os << "      n=" << fmt(c["n"].as_number())
             << " m=" << fmt(c["m"].as_number())
             << " p=" << fmt(c["p"].as_number()) << " range "
             << c["range"].as_string()
             << (c["holdout"].as_number() != 0 ? " [holdout]" : "")
             << ": slowdown " << fmt(c["slowdown"].as_number())
             << " = reloc " << fmt(c["slow_reloc"].as_number()) << " + exec "
             << fmt(c["slow_exec"].as_number()) << " + comm "
             << fmt(c["slow_comm"].as_number()) << "\n";
        }
      }
    }
  }
  return kExitOk;
}

namespace {

void diff_gbench(const Artifact& baseline, const Artifact& candidate,
                 const FileSpec& spec, bool comparable, DiffState& st) {
  std::ostream& os = st.report;
  // Ratio gates: candidate-only, hardware-independent.
  for (const RatioGate& g : spec.ratio_gates) {
    if (g.min_cpus > 0 && candidate.num_cpus < g.min_cpus) {
      os << "skip (needs >= " << g.min_cpus << " cpus, have "
         << candidate.num_cpus << "): " << g.label << "\n";
      continue;
    }
    const json::Value& nb = find_benchmark(candidate.root, g.num);
    const json::Value& db = find_benchmark(candidate.root, g.den);
    if (nb.is_null() || db.is_null() || !nb.has(g.num_metric) ||
        !db.has(g.den_metric)) {
      st.fail(g.label + ": benchmark or metric missing from candidate");
      continue;
    }
    double num = nb[g.num_metric].as_number();
    double den = std::max(db[g.den_metric].as_number(), g.den_floor);
    double ratio = den > 0 ? num / den : 0.0;
    os << (ratio >= g.min ? "ok  " : "FAIL") << "  " << g.label << ": "
       << fmt(ratio) << "x (bar " << fmt(g.min) << "x)\n";
    if (ratio < g.min)
      st.failures.push_back({g.label + ": " + fmt(ratio) + "x under " +
                             fmt(g.min) + "x"});
  }
  // Drift vs the baseline: same hardware only.
  if (spec.drift.empty()) return;
  if (!comparable) {
    st.refused_drift = true;
    os << "REFUSED drift comparison: baseline host '" << baseline.hostname
       << "' (" << baseline.num_cpus << " cpus) vs candidate host '"
       << candidate.hostname << "' (" << candidate.num_cpus
       << " cpus) — cross-hardware numbers would gate the machines, not "
          "the code\n";
    return;
  }
  // One gate per baseline benchmark, read from its representative row
  // on each side (an aggregated baseline against a single-run
  // candidate included); spread rows never stand for a benchmark.
  std::vector<std::string> gated;
  for (const auto& row : baseline.root["benchmarks"].items()) {
    const RowId id = row_id(row);
    if (id.rank == 0 ||
        std::find(gated.begin(), gated.end(), id.run) != gated.end())
      continue;
    gated.push_back(id.run);
    const json::Value& bb = find_benchmark(baseline.root, id.run);
    const json::Value& cb = find_benchmark(candidate.root, id.run);
    if (cb.is_null()) {
      st.fail(id.run + ": baseline benchmark missing from candidate");
      continue;
    }
    for (const DriftSpec& d : spec.drift) {
      if (!bb.has(d.metric)) continue;
      if (!cb.has(d.metric)) {
        st.fail(id.run + " " + d.metric + ": missing from candidate");
        continue;
      }
      double base = bb[d.metric].as_number();
      double cand = cb[d.metric].as_number();
      if (base <= 0) continue;
      bool regressed = d.lower_is_better
                           ? cand > base * (1.0 + d.rel_tol)
                           : cand < base * (1.0 - d.rel_tol);
      os << (regressed ? "FAIL" : "ok  ") << "  " << id.run << " "
         << d.metric << ": " << fmt(base) << " -> " << fmt(cand) << " ("
         << fmt(cand / base) << "x, tol " << fmt(d.rel_tol) << ")\n";
      if (regressed)
        st.failures.push_back({id.run + " " + d.metric + " drifted " +
                               fmt(cand / base) + "x beyond tolerance"});
    }
  }
}

void diff_metrics(const Artifact& baseline, const Artifact& candidate,
                  const FileSpec& spec, bool comparable, DiffState& st) {
  std::ostream& os = st.report;
  const auto& bp = baseline.root["passes"].items();
  const auto& cp = candidate.root["passes"].items();
  if (baseline.name != candidate.name)
    st.fail("report names differ: '" + baseline.name + "' vs '" +
            candidate.name + "'");
  if (bp.size() != cp.size()) {
    st.fail("pass count differs: " + fmt((double)bp.size()) + " vs " +
            fmt((double)cp.size()));
    return;
  }
  for (std::size_t i = 0; i < bp.size(); ++i) {
    // Structural identity: the sweep layout is deterministic, so any
    // difference is a real change, not noise.
    const auto& bs = bp[i]["sweeps"].items();
    const auto& cs = cp[i]["sweeps"].items();
    if (bs.size() != cs.size()) {
      st.fail("pass " + fmt((double)i) + " sweep count differs");
      continue;
    }
    for (std::size_t j = 0; j < bs.size(); ++j) {
      if (bs[j]["label"].as_string() != cs[j]["label"].as_string() ||
          bs[j]["points"].as_number() != cs[j]["points"].as_number())
        st.fail("pass " + fmt((double)i) + " sweep " + fmt((double)j) +
                " label/points differ");
    }
    // Attribution: keys are a pure function of the span multiset —
    // compare them when both sides are trusted.
    const json::Value& ba = bp[i]["attribution"];
    const json::Value& ca = cp[i]["attribution"];
    if (!ba.is_null() && !ca.is_null()) {
      if (!attribution_trusted(bp[i]) || !attribution_trusted(cp[i])) {
        os << "skip attribution of pass " << i
           << ": one side has trace drops (untrusted)\n";
      } else {
        auto keys = [](const json::Value& at) {
          std::vector<std::string> k;
          for (const auto& [name, v] : at["mechanisms"].members()) {
            (void)v;
            k.push_back(name);
          }
          std::sort(k.begin(), k.end());
          return k;
        };
        if (keys(ba) != keys(ca))
          st.fail("pass " + fmt((double)i) +
                  " attribution mechanism keys differ");
        else
          os << "ok    pass " << i << " attribution keys match\n";
      }
    }
    // Calibration points: ledger-deterministic, so values must agree
    // exactly (tiny epsilon for serialization rounding).
    const auto& bc = ba["calibration_points"].items();
    const auto& cc = ca["calibration_points"].items();
    if (!bc.empty() || !cc.empty()) {
      if (bc.size() != cc.size()) {
        st.fail("pass " + fmt((double)i) + " calibration point count differs");
      } else {
        for (std::size_t j = 0; j < bc.size(); ++j) {
          double b = bc[j]["slowdown"].as_number();
          double c = cc[j]["slowdown"].as_number();
          if (bc[j]["n"].as_number() != cc[j]["n"].as_number() ||
              bc[j]["m"].as_number() != cc[j]["m"].as_number() ||
              bc[j]["p"].as_number() != cc[j]["p"].as_number() ||
              std::fabs(b - c) > 1e-6 * std::max(std::fabs(b), 1.0))
            st.fail("pass " + fmt((double)i) + " calibration point " +
                    fmt((double)j) + " differs (deterministic value!)");
        }
      }
    }
  }
  // Timing drift: same hardware only.
  if (spec.drift.empty()) return;
  if (!comparable) {
    st.refused_drift = true;
    os << "REFUSED drift comparison: baseline host '" << baseline.hostname
       << "' (" << baseline.num_cpus << " cpus) vs candidate host '"
       << candidate.hostname << "' (" << candidate.num_cpus << " cpus)\n";
    return;
  }
  for (const DriftSpec& d : spec.drift) {
    if (d.metric == "speedup") {
      double base = baseline.root["speedup"].as_number();
      double cand = candidate.root["speedup"].as_number();
      if (base <= 0) continue;
      bool regressed = cand < base * (1.0 - d.rel_tol);
      os << (regressed ? "FAIL" : "ok  ") << "  speedup: " << fmt(base)
         << " -> " << fmt(cand) << "\n";
      if (regressed) st.failures.push_back({"speedup drifted down"});
    } else if (d.metric == "seconds") {
      for (std::size_t i = 0; i < bp.size(); ++i) {
        double base = bp[i]["seconds"].as_number();
        double cand = cp[i]["seconds"].as_number();
        if (base <= 0) continue;
        bool regressed = cand > base * (1.0 + d.rel_tol);
        os << (regressed ? "FAIL" : "ok  ") << "  pass " << i
           << " seconds: " << fmt(base) << " -> " << fmt(cand) << "\n";
        if (regressed)
          st.failures.push_back({"pass " + fmt((double)i) +
                                 " wall clock drifted up"});
      }
    }
  }
}

}  // namespace

int run_diff(const Artifact& baseline, const Artifact& candidate,
             const DiffOptions& opt, std::ostream& os) {
  DiffState st;
  st.report << "bsmp-stat diff\n  baseline:  " << baseline.path << " ("
            << baseline.schema << ", host "
            << (baseline.hostname.empty() ? "?" : baseline.hostname) << ", "
            << baseline.num_cpus << " cpus)\n  candidate: " << candidate.path
            << " (" << candidate.schema << ", host "
            << (candidate.hostname.empty() ? "?" : candidate.hostname) << ", "
            << candidate.num_cpus << " cpus)\n";

  int code = kExitOk;
  if (baseline.kind != candidate.kind ||
      baseline.kind == ArtifactKind::kUnknown) {
    os << st.report.str();
    os << "error: artifacts are of different (or unknown) kinds\n";
    return kExitUsage;
  }

  FileSpec spec;
  if (!opt.tolerances_path.empty()) {
    std::string err;
    if (!load_spec_for(opt.tolerances_path, basename_of(baseline.path), spec,
                       err)) {
      os << st.report.str() << "error: " << err << "\n";
      return kExitUsage;
    }
  }

  bool comparable = comparable_hardware(baseline, candidate);
  if (baseline.kind == ArtifactKind::kGoogleBenchmark)
    diff_gbench(baseline, candidate, spec, comparable, st);
  else
    diff_metrics(baseline, candidate, spec, comparable, st);

  if (!st.failures.empty()) {
    st.report << "\n" << st.failures.size() << " regression(s)\n";
    code = kExitRegression;
  } else if (st.refused_drift && opt.require_comparable) {
    st.report << "\nrefused: --require-comparable and hardware differs\n";
    code = kExitRefused;
  } else {
    st.report << "\n0 regressions\n";
  }

  os << st.report.str();
  if (!opt.report_path.empty()) {
    std::ofstream f(opt.report_path);
    if (f) f << st.report.str();
  }
  return code;
}

int run_fit(const Artifact& a, std::ostream& os) {
  if (a.kind != ArtifactKind::kMetrics) {
    os << "error: fit needs a bsmp-metrics artifact\n";
    return kExitUsage;
  }
  // Use the last pass that recorded calibration points (passes record
  // the same deterministic samples; the last is the parallel pass).
  const json::Value* cal = nullptr;
  for (const auto& pass : a.root["passes"].items()) {
    const json::Value& c = pass["attribution"]["calibration_points"];
    if (!c.items().empty()) cal = &c;
  }
  if (cal == nullptr) {
    os << "error: no attribution.calibration_points in " << a.path
       << " (run the `cal` emitter with metrics enabled)\n";
    return kExitUsage;
  }

  analytic::Calibration agg;
  analytic::MechanismCalibration mech;
  struct Holdout {
    double n, m, p, measured;
  };
  std::vector<Holdout> holdouts;
  for (const auto& c : cal->items()) {
    double n = c["n"].as_number(), m = c["m"].as_number(),
           p = c["p"].as_number();
    double slow = c["slowdown"].as_number();
    if (c["holdout"].as_number() != 0) {
      holdouts.push_back({n, m, p, slow});
      continue;
    }
    agg.add_measurement(n, m, p, slow);
    mech.add_measurement(n, m, p, slow, c["slow_reloc"].as_number(),
                         c["slow_exec"].as_number(),
                         c["slow_comm"].as_number());
  }
  if (mech.num_measurements() < 3) {
    os << "error: fewer than 3 training points\n";
    return kExitUsage;
  }
  agg.fit();
  mech.fit();

  os << "per-mechanism fit over " << mech.num_measurements()
     << " training points (" << holdouts.size() << " holdout)\n";
  os << "  aggregate fit:  c_reloc " << fmt(agg.c_relocation())
     << ", c_exec " << fmt(agg.c_execution()) << ", c_comm "
     << fmt(agg.c_communication()) << "  (MRE "
     << fmt(agg.training_error()) << ")\n";
  os << "  mechanism fit (pooled): c_reloc " << fmt(mech.c_relocation())
     << ", c_exec " << fmt(mech.c_execution()) << ", c_comm "
     << fmt(mech.c_communication()) << "  (MRE "
     << fmt(mech.training_error()) << ")\n";
  for (int r = 0; r < 4; ++r) {
    auto range = static_cast<analytic::Range>(r);
    os << "    range " << analytic::to_string(range) << ": c_reloc "
       << fmt(mech.c_relocation(range)) << ", c_exec "
       << fmt(mech.c_execution(range)) << ", c_comm "
       << fmt(mech.c_communication(range)) << "\n";
  }
  for (const Holdout& h : holdouts) {
    double pa = agg.predict(h.n, h.m, h.p);
    double pm = mech.predict(h.n, h.m, h.p);
    os << "  holdout n=" << fmt(h.n) << " m=" << fmt(h.m) << " p="
       << fmt(h.p) << ": measured " << fmt(h.measured) << ", aggregate "
       << fmt(pa) << " (ratio " << fmt(pa / h.measured)
       << "), mechanism " << fmt(pm) << " (ratio " << fmt(pm / h.measured)
       << ")\n";
  }
  return kExitOk;
}

int run_cli(int argc, const char* const* argv, std::ostream& out,
            std::ostream& err) {
  auto usage = [&]() {
    err << "usage: bsmp-stat show <artifact.json>\n"
        << "       bsmp-stat diff [--tolerances <spec.json>] "
           "[--report <out.txt>]\n"
        << "                      [--require-comparable] <baseline.json> "
           "<candidate.json>\n"
        << "       bsmp-stat fit <metrics.json>\n"
        << "artifacts: bsmp-metrics-v1..v3 reports and google-benchmark\n"
        << "--benchmark_out files are auto-detected.\n"
        << "exit codes: 0 ok/cleanly-skipped, 1 regression, 2 usage or\n"
        << "file error, 3 incomparable hardware under "
           "--require-comparable.\n";
    return kExitUsage;
  };
  if (argc < 2) return usage();
  std::string cmd = argv[1];

  auto load = [&](const std::string& path, Artifact& a) {
    LoadResult r = load_artifact(path);
    if (!r.ok) {
      err << "error: " << r.error << "\n";
      return false;
    }
    a = std::move(r.artifact);
    return true;
  };

  if (cmd == "show") {
    if (argc != 3) return usage();
    Artifact a;
    if (!load(argv[2], a)) return kExitUsage;
    return run_show(a, out);
  }
  if (cmd == "fit") {
    if (argc != 3) return usage();
    Artifact a;
    if (!load(argv[2], a)) return kExitUsage;
    return run_fit(a, out);
  }
  if (cmd == "diff") {
    DiffOptions opt;
    std::vector<std::string> files;
    for (int i = 2; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--tolerances" && i + 1 < argc) {
        opt.tolerances_path = argv[++i];
      } else if (arg == "--report" && i + 1 < argc) {
        opt.report_path = argv[++i];
      } else if (arg == "--require-comparable") {
        opt.require_comparable = true;
      } else if (!arg.empty() && arg[0] == '-') {
        return usage();
      } else {
        files.push_back(arg);
      }
    }
    if (files.size() != 2) return usage();
    Artifact baseline, candidate;
    if (!load(files[0], baseline) || !load(files[1], candidate))
      return kExitUsage;
    return run_diff(baseline, candidate, opt, out);
  }
  return usage();
}

}  // namespace bsmp::stat
