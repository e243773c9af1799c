// FACTOR benchmark.
//
// Runs one named workload of the FACTOR flow (source text -> parse ->
// elaborate -> transformed ATPG views -> ATPG) over and over for a fixed
// measuring time and prints one JSON result line. Every layer is measured
// from outside, by timing calls into its public entry point and by taking
// before/after deltas of the process-global obs::Registry counters and
// obs::Profiler phase seconds around each call. Nothing inside src/ is
// instrumented for the benchmark.
//
//   factorbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--jobs <n>] [--detail <file>] [--trace-out <file>]
//
// Every result-changing engine input is pinned in engine_options() below;
// the seed reaches the engine through EngineOptions::seed. Work is bounded by
// fixed per-fault caps, never by a wall clock, so every work counter and
// quality number repeats exactly for one seed at any jobs value.
//
// The time metrics with a bound are host-speed normalized (see
// HostSpeed): each timed interval is scaled by how fast a fixed reference
// kernel ran right before and after it. The raw seconds are reported too,
// as per-layer metrics.
#include "atpg/engine.hpp"
#include "atpg/fault.hpp"
#include "atpg/fault_sim.hpp"
#include "core/extractor.hpp"
#include "core/transform.hpp"
#include "designs/designs.hpp"
#include "elab/elaborator.hpp"
#include "obs/json_value.hpp"
#include "obs/obs.hpp"
#include "obs/profiler.hpp"
#include "rtl/ast.hpp"
#include "rtl/parser.hpp"
#include "util/diagnostics.hpp"
#include "util/phase.hpp"
#include "util/sysinfo.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/resource.h>

extern char** environ;

namespace {

using namespace factor;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// User + system CPU seconds of the whole process, all threads included
/// (ATPG worker threads are joined before run_atpg returns).
double cpu_seconds() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) +
               1e-6 * static_cast<double>(t.tv_usec);
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

// ------------------------------------------------------------ host speed

/// Reads how fast the host runs right now, by timing a fixed reference
/// kernel that belongs to the benchmark and not to the program under test.
///
/// On a shared VM the speed of one vCPU moves by 20-50% within minutes as
/// other tenants load the same cores, caches and memory; ATPG passes of
/// one seed drifted from 3.2 s to 5.8 s within a run. A plain time then
/// measures the neighbours as much as the program. The kernel is a
/// miniature of the engine's kind of work (scattered evaluation of a
/// random two-input gate netlist of 2^18 gates, ~3 MB, with a small heap
/// allocation every 1024 gates), so it slows down with the host much as
/// ATPG does. A timed interval divided by the kernel's time around it,
/// times the kernel's time on a quiet host (kNominalS), is the interval in
/// seconds of that quiet host.
class HostSpeed {
  public:
    /// The scale of the end-to-end times: roughly the kernel's time on a
    /// quiet 4-vCPU Xeon (Sapphire Rapids) KVM guest, where readings of
    /// 5.7-6.5 ms were seen. Fixed, so that values of different runs and
    /// commits compare.
    static constexpr double kNominalS = 0.0065;

    HostSpeed() {
        uint64_t x = 0x9E3779B97F4A7C15ull;
        auto next = [&x] {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            return x;
        };
        gates_.resize(kGates);
        values_.resize(kGates);
        for (uint32_t i = 0; i < kGates; ++i) {
            gates_[i] = Gate{static_cast<uint32_t>(next() % kGates),
                             static_cast<uint32_t>(next() % kGates),
                             static_cast<uint8_t>(next() % 4)};
            values_[i] = next();
        }
        read(); // warm the caches and the allocator once
    }

    /// Seconds the kernel takes now: the mean of kRunsPerRead back-to-back
    /// runs. The host's speed also jitters from one millisecond to the
    /// next; two readings 0.1 s apart differed by 22% (standard deviation)
    /// when each was two runs long, which made each scaled pass as noisy
    /// as the plain ones. Longer readings average the jitter out.
    double read() {
        const auto t0 = Clock::now();
        for (int i = 0; i < kRunsPerRead; ++i) kernel();
        return since(t0) / kRunsPerRead;
    }

    /// `seconds` measured between readings `before` and `after`, in
    /// seconds of the quiet reference host.
    static double scale(double seconds, double before, double after) {
        return seconds * kNominalS / (0.5 * (before + after));
    }

  private:
    static constexpr uint32_t kGates = 1u << 18;
    static constexpr uint32_t kEvals = 300000;
    static constexpr int kRunsPerRead = 8;

    struct Gate {
        uint32_t a, b;
        uint8_t type;
    };

    void kernel() {
        uint64_t acc = 0;
        for (uint32_t i = 0; i < kEvals; ++i) {
            const uint32_t g = (i * 2654435761u) % kGates;
            const Gate& gate = gates_[g];
            const uint64_t a = values_[gate.a], b = values_[gate.b];
            uint64_t r;
            switch (gate.type) {
            case 0: r = a & b; break;
            case 1: r = a | b; break;
            case 2: r = a ^ b; break;
            default: r = ~(a & b); break;
            }
            values_[g] = r;
            acc += r;
            if ((i & 1023) == 0) {
                std::vector<uint64_t> scratch(64 + (r & 1023), r);
                acc += scratch.back() + scratch.size();
            }
        }
        sink_ = sink_ + acc;
    }

    std::vector<Gate> gates_;
    std::vector<uint64_t> values_;
    volatile uint64_t sink_ = 0;
};

// ------------------------------------------------------------- workloads

/// The two workloads run the same flow and differ only in the engine.
struct Workload {
    const char* name;
    atpg::EngineKind engine;
};

const Workload kWorkloads[] = {
    // Table 6 views, deterministic PODEM with a low backtrack cap.
    {"table6_podem", atpg::EngineKind::Podem},
    // Table 6 views, SAT for every targeted fault (no PODEM call).
    {"table6_sat", atpg::EngineKind::Sat},
};

/// Passes cycle through this many engine seeds derived from --seed: pass i
/// runs with EngineOptions::seed = seed * kSeedCycle + i % kSeedCycle. The
/// ATPG work of one engine seed differs from another's by up to ~10% (SAT
/// conflicts), and peak memory by up to 1.6x (35 against 54-58 MB on
/// table6_sat), so a run over one engine seed would measure the seed's
/// luck as much as the program. Odd, so that the traced and untraced
/// passes of a traced run cover every engine seed alike.
constexpr size_t kSeedCycle = 3;

const Workload* find_workload(const std::string& name) {
    for (const auto& w : kWorkloads) {
        if (name == w.name) return &w;
    }
    return nullptr;
}

/// Every engine input that can change a result, pinned; nothing is read
/// from the environment. The caps are sized so one single-worker pass
/// takes 4-9 s and a run holds several passes: PODEM unrolls to 4 frames
/// (8 made a four-worker pass take ~11 s), SAT stops at 100 conflicts and
/// 4 frames (at 500 conflicts arm_alu's 18 aborted solves alone took
/// 8-10 s a pass; 2000 and 8 frames took ~30 s with four workers). Sim
/// width 64 is set explicitly so the random-pattern stream does not depend
/// on the host ISA.
atpg::EngineOptions engine_options(const Workload& w, uint64_t seed,
                                   size_t jobs) {
    atpg::EngineOptions o;
    o.engine = w.engine;
    o.max_backtracks = 20;
    o.max_frames = 4;
    o.random_batches = 32;
    o.random_frames = 12;
    o.random_stale_limit = 3;
    o.sat_conflict_budget = 100;
    o.sat_max_frames = 4;
    o.collect_tests = true;
    o.sim_width = 64;
    o.sim_mode = atpg::SimMode::Event;
    o.seed = seed;
    o.jobs = jobs;
    o.time_budget_s = 0.0;
    o.retry_rounds = 0;
    return o;
}

// ------------------------------------------------- registry/profiler deltas

/// Flat view of every cumulative number the engine publishes: registry
/// counters ("c:<name>"), histogram sums/counts ("h:<name>.sum"/".count"),
/// profiler phase seconds ("p:<phase>") and worker busy seconds
/// ("w:<id>").
using Snapshot = std::map<std::string, double>;

Snapshot snapshot() {
    Snapshot s;
    auto reg = obs::JsonValue::parse(obs::Registry::global().to_json());
    auto prof = obs::JsonValue::parse(obs::Profiler::global().to_json(0.0));
    if (!reg || !prof) throw std::runtime_error("unparsable obs snapshot");
    if (const auto* c = reg->get("counters")) {
        for (const auto& [k, v] : c->members()) s["c:" + k] = v.number_or(0);
    }
    if (const auto* h = reg->get("histograms")) {
        for (const auto& [k, v] : h->members()) {
            s["h:" + k + ".sum"] = v.number_at("sum", 0);
            s["h:" + k + ".count"] = v.number_at("count", 0);
        }
    }
    if (const auto* p = prof->get("phases")) {
        for (const auto& ph : p->items()) {
            s["p:" + ph.string_at("name")] = ph.number_at("seconds", 0);
        }
    }
    if (const auto* w = prof->get("workers")) {
        for (const auto& wk : w->items()) {
            s["w:" + std::to_string(static_cast<uint64_t>(
                         wk.number_at("worker", 0)))] =
                wk.number_at("busy_seconds", 0);
        }
    }
    return s;
}

Snapshot delta(const Snapshot& after, const Snapshot& before) {
    Snapshot d;
    for (const auto& [k, v] : after) {
        auto it = before.find(k);
        double diff = v - (it == before.end() ? 0.0 : it->second);
        if (diff != 0.0) d[k] = diff;
    }
    return d;
}

double get(const Snapshot& s, const std::string& k) {
    auto it = s.find(k);
    return it == s.end() ? 0.0 : it->second;
}

// ----------------------------------------------------------------- tracing

/// One span of the benchmark's own call tree: run -> pass -> row -> call.
struct SpanRec {
    std::string name;
    std::string layer; // "bench" for run/pass/row, else the called layer
    uint64_t run_id = 0;
    int id = 0;
    int parent = -1;
    double start_s = 0.0;
    double end_s = 0.0;
    Snapshot work; // registry/profiler delta (calls only)
};

/// In-memory span recorder; written out once when the run ends.
class Trace {
  public:
    Trace(bool on, uint64_t run_id, Clock::time_point epoch)
        : on_(on), run_id_(run_id), epoch_(epoch) {}

    void set_on(bool on) { on_ = on; }

    int open(std::string name, std::string layer) {
        if (!on_) return -1;
        SpanRec s;
        s.name = std::move(name);
        s.layer = std::move(layer);
        s.run_id = run_id_;
        s.id = static_cast<int>(spans_.size());
        s.parent = stack_.empty() ? -1 : stack_.back();
        s.start_s = since(epoch_);
        spans_.push_back(std::move(s));
        stack_.push_back(spans_.back().id);
        return spans_.back().id;
    }

    void close(int id) {
        if (id < 0) return;
        spans_[static_cast<size_t>(id)].end_s = since(epoch_);
        stack_.pop_back();
    }

    void attach(int id, Snapshot work) {
        if (id >= 0) spans_[static_cast<size_t>(id)].work = std::move(work);
    }

    [[nodiscard]] const std::vector<SpanRec>& spans() const { return spans_; }

    /// Self time per span: its duration minus the part its children cover.
    [[nodiscard]] std::vector<double> self_times() const {
        std::vector<double> self(spans_.size());
        for (const auto& s : spans_) {
            self[static_cast<size_t>(s.id)] += s.end_s - s.start_s;
            if (s.parent >= 0) {
                self[static_cast<size_t>(s.parent)] -= s.end_s - s.start_s;
            }
        }
        return self;
    }

    [[nodiscard]] std::string to_ndjson() const {
        std::string out;
        for (const auto& s : spans_) {
            out += "{\"run\":" + std::to_string(s.run_id) +
                   ",\"id\":" + std::to_string(s.id) +
                   ",\"parent\":" + std::to_string(s.parent) +
                   ",\"name\":\"" + obs::json_escape(s.name) + "\"" +
                   ",\"layer\":\"" + s.layer + "\"" +
                   ",\"start_s\":" + obs::json_number(s.start_s) +
                   ",\"end_s\":" + obs::json_number(s.end_s) + ",\"work\":{";
            bool first = true;
            for (const auto& [k, v] : s.work) {
                if (!first) out += ',';
                first = false;
                out += "\"" + obs::json_escape(k) + "\":" + obs::json_number(v);
            }
            out += "}}\n";
        }
        return out;
    }

  private:
    bool on_;
    uint64_t run_id_;
    Clock::time_point epoch_;
    std::vector<SpanRec> spans_;
    std::vector<int> stack_;
};

/// RAII span for the benchmark's own levels (run, pass, row).
class Scope {
  public:
    Scope(Trace& t, std::string name)
        : t_(t), id_(t.open(std::move(name), "bench")) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { t_.close(id_); }

  private:
    Trace& t_;
    int id_;
};

// ------------------------------------------------------------ per-pass data

/// Everything one pass measured. Values are sums over the pass's calls.
struct Pass {
    double wall_s = 0.0;
    double setup_s = 0.0;
    double atpg_s = 0.0;
    double cpu_s = 0.0; // CPU time of every timed call
    // setup_s, wall_s and atpg_s in seconds of the quiet reference host
    // (HostSpeed); setup_ref_s is reported as the end-to-end setup_s.
    double setup_ref_s = 0.0;
    double wall_ref_s = 0.0;
    double atpg_ref_s = 0.0;
    uint64_t engine_seed = 0;
    std::vector<double> host_reads; // HostSpeed::read() values, in order
    std::vector<double> build_ms;
    // Per-call timings by layer entry point.
    double parse_s = 0.0;
    double elaborate_s = 0.0;
    double build_s = 0.0;
    double extract_flat_s = 0.0;
    double extract_composed_s = 0.0;
    double synth_in_build_s = 0.0;
    double check_s = 0.0; // output checks, excluded from wall_s and setup_s
    uint64_t view_gates = 0;
    uint64_t jobs = 0;
    /// Summed registry/profiler deltas of every call, plus the engine's
    /// own result totals under "r:" keys. The "r:" totals count committed
    /// work only; registry counters bumped on worker threads (PODEM, SAT)
    /// also count speculative attempts that a parallel run discards.
    Snapshot work;
    size_t rows = 0;
    size_t failed_rows = 0;
    std::vector<std::string> failures;
    // Trace-derived (traced passes only).
    bool traced = false;
    std::map<std::string, double> layer_self_s;
};

/// Times one call into a layer and attributes its registry/profiler delta
/// to the pass (and to the call's span when tracing).
template <class F>
auto call(Pass& pass, Trace& trace, const std::string& name,
          const char* layer, double& timer, F&& f) {
    const Snapshot before = snapshot();
    const int span = trace.open(name, layer);
    const auto t0 = Clock::now();
    const double cpu0 = cpu_seconds();
    auto out = f();
    timer += since(t0);
    pass.cpu_s += cpu_seconds() - cpu0;
    trace.close(span);
    Snapshot d = delta(snapshot(), before);
    for (const auto& [k, v] : d) pass.work[k] += v;
    trace.attach(span, std::move(d));
    return out;
}

// ------------------------------------------------------------ output checks

/// Gates of `nl` whose output net lies under `prefix`, counted here
/// rather than taken from the transform layer's own statistics.
size_t gates_under(const synth::Netlist& nl, const std::string& prefix) {
    size_t n = 0;
    for (const auto& g : nl.gates()) {
        if (g.type == synth::GateType::Const0 ||
            g.type == synth::GateType::Const1 ||
            g.type == synth::GateType::Buf) {
            continue;
        }
        if (nl.net_name(g.out).rfind(prefix, 0) == 0) ++n;
    }
    return n;
}

/// A view is usable for ATPG when the flow reported no failure, it has
/// MUT gates, at least one primary input reaches logic and at least one
/// primary output is driven.
std::string check_view(const core::TransformedModule& tm) {
    if (tm.status != util::PhaseStatus::Ok) {
        return std::string("view status ") + util::to_string(tm.status) +
               ": " + tm.status_detail;
    }
    const synth::Netlist& nl = tm.netlist;
    if (gates_under(nl, tm.mut_prefix) == 0) return "no MUT gates";
    const auto fanout = nl.build_fanout();
    bool pi = false;
    for (auto n : nl.inputs()) pi = pi || !fanout[n].empty();
    bool po = false;
    for (auto n : nl.outputs()) po = po || nl.is_driven(n);
    if (!pi) return "no connected primary input";
    if (!po) return "no driven primary output";
    return "";
}

/// ATPG row check, independent of the engine's own bookkeeping: the
/// classification adds up, the run did not fail, and no returned test
/// detects a fault the engine called untestable or redundant when
/// re-simulated by a fresh full-sweep simulator.
std::string check_atpg(const synth::Netlist& nl, const atpg::EngineOptions& o,
                       const atpg::EngineResult& r) {
    if (r.status == util::PhaseStatus::Failed) {
        return "status failed: " + r.status_detail;
    }
    if (r.detected + r.untestable + r.redundant + r.aborted != r.total_faults) {
        return "classification does not add up to the fault total";
    }
    if (r.statuses.size() != r.total_faults) return "status vector size";
    size_t det = 0, unt = 0, red = 0, abo = 0;
    for (auto s : r.statuses) {
        det += s == atpg::FaultStatus::Detected;
        unt += s == atpg::FaultStatus::Untestable;
        red += s == atpg::FaultStatus::Redundant;
        abo += s == atpg::FaultStatus::Aborted;
    }
    if (det != r.detected || unt != r.untestable || red != r.redundant ||
        abo != r.aborted) {
        return "per-fault statuses disagree with the counts";
    }
    if (r.tests.empty()) return "";
    atpg::FaultList list(nl, o.scope_prefix);
    if (list.size() != r.statuses.size()) return "fault list size mismatch";
    std::vector<const atpg::Fault*> proven;
    for (size_t i = 0; i < list.size(); ++i) {
        if (r.statuses[i] == atpg::FaultStatus::Untestable ||
            r.statuses[i] == atpg::FaultStatus::Redundant) {
            proven.push_back(&list.faults()[i].fault);
        }
    }
    if (proven.empty()) return "";
    atpg::FaultSimulator sim(
        nl, atpg::FaultSimulator::Config{1, atpg::SimMode::Full, nullptr});
    for (const auto& test : r.tests) {
        auto seq = atpg::broadcast(test, nl.inputs().size());
        auto good = sim.simulate_good_cached(seq);
        for (const auto* f : proven) {
            if (sim.detects(*f, seq, *good)) {
                return "a returned test detects a fault classified "
                       "untestable/redundant";
            }
        }
    }
    return "";
}

// ------------------------------------------------------------------ flows

/// Source text -> parsed -> elaborated design. The Design must outlive
/// the elaborated view, so both are returned together.
struct Elaborated {
    std::unique_ptr<rtl::Design> design;
    std::unique_ptr<elab::ElaboratedDesign> elab;
};

/// arm2z from its Verilog source text to the elaborated design.
Elaborated front(Pass& pass, Trace& trace, util::DiagEngine& diags) {
    Elaborated e;
    e.design = std::make_unique<rtl::Design>();
    call(pass, trace, "rtl::Parser::parse_source", "rtl", pass.parse_s, [&] {
        rtl::Parser::parse_source(designs::arm2z_source(), "arm2z.v",
                                  *e.design, diags);
        return 0;
    });
    if (diags.has_errors()) {
        throw std::runtime_error(std::string("parse failed: ") + diags.dump());
    }
    e.elab = call(pass, trace, "elab::Elaborator::elaborate", "elab",
                  pass.elaborate_s, [&] {
                      elab::Elaborator el(*e.design, diags);
                      return el.elaborate(designs::kArm2zTop);
                  });
    if (!e.elab) {
        throw std::runtime_error(std::string("elaborate failed: ") +
                                 diags.dump());
    }
    return e;
}

/// Counts one row and runs its output check; the check's time is the
/// benchmark's, not the flow's, so it is kept out of wall_s and setup_s.
template <class F>
void check_row(Pass& pass, const std::string& row, F&& check) {
    const auto t0 = Clock::now();
    const std::string why = check();
    pass.check_s += since(t0);
    ++pass.rows;
    if (!why.empty()) {
        ++pass.failed_rows;
        pass.failures.push_back(row + ": " + why);
    }
}

void run_atpg_row(Pass& pass, Trace& trace, const std::string& row,
                  const synth::Netlist& nl, const atpg::EngineOptions& o) {
    auto r = call(pass, trace, "atpg::run_atpg", "atpg", pass.atpg_s,
                  [&] { return atpg::run_atpg(nl, o); });
    auto& t = pass.work;
    t["r:faults"] += static_cast<double>(r.total_faults);
    t["r:detected"] += static_cast<double>(r.detected);
    t["r:resolved"] +=
        static_cast<double>(r.detected + r.untestable + r.redundant);
    t["r:aborted"] += static_cast<double>(r.aborted);
    t["r:tests"] += static_cast<double>(r.deterministic_tests);
    t["r:collected_tests"] += static_cast<double>(r.tests.size());
    t["r:random_sequences"] += static_cast<double>(r.random_sequences);
    t["r:sat_attempts"] += static_cast<double>(r.sat_attempts);
    t["r:sat_resolved"] +=
        static_cast<double>(r.sat_recovered + r.sat_redundant);
    t["r:sat_conflicts"] += static_cast<double>(r.sat_conflicts);
    t["r:sat_decisions"] += static_cast<double>(r.sat_decisions);
    t["r:sat_propagations"] += static_cast<double>(r.sat_propagations);
    t["r:sat_learned_clauses"] += static_cast<double>(r.sat_learned_clauses);
    pass.jobs = r.threads;
    check_row(pass, row, [&] { return check_atpg(nl, o, r); });
}

/// Table 6 flow: the four arm2z MUTs are built both flat and composed (the
/// paper's Tables 2 and 3), then the composed views are run through ATPG.
void pass_table6(Pass& pass, Trace& trace, HostSpeed& host,
                 const Workload& w, uint64_t seed, size_t jobs) {
    // Host-speed readings bracket the set-up and every ATPG row; they are
    // the benchmark's time, not the flow's.
    pass.host_reads.push_back(host.read());
    const auto pass_start = Clock::now();
    util::DiagEngine diags;
    Elaborated e = front(pass, trace, diags);
    core::TransformBuilder builder(*e.elab, diags);
    core::TransformOptions topts;
    topts.pier_allowlist = designs::arm2z_piers();
    std::vector<std::pair<std::string, core::TransformedModule>> views;
    for (core::Mode mode : {core::Mode::Flat, core::Mode::Composed}) {
        const char* tag = mode == core::Mode::Flat ? "flat" : "composed";
        core::ExtractionSession session(*e.elab, mode, diags);
        for (const auto& mut : designs::arm2z_muts()) {
            const auto* node = e.elab->find_by_path(mut.instance_path);
            if (node == nullptr) {
                throw std::runtime_error("missing MUT " + mut.instance_path);
            }
            const std::string row = mut.display_name + "/" + tag;
            Scope rs(trace, row);
            double t = 0.0;
            auto tm = call(pass, trace, "core::TransformBuilder::build",
                           "core", t, [&] {
                               return builder.build(*node, session, topts);
                           });
            pass.build_s += t;
            pass.build_ms.push_back(t * 1e3);
            (mode == core::Mode::Flat ? pass.extract_flat_s
                                      : pass.extract_composed_s) +=
                tm.extraction_seconds;
            pass.synth_in_build_s += tm.synthesis_seconds;
            check_row(pass, row, [&] { return check_view(tm); });
            if (mode == core::Mode::Composed) {
                views.emplace_back(row, std::move(tm));
            }
        }
    }
    pass.setup_s = since(pass_start) - pass.check_s;
    pass.host_reads.push_back(host.read());
    pass.wall_s = pass.setup_s;
    pass.setup_ref_s = HostSpeed::scale(pass.setup_s, pass.host_reads[0],
                                        pass.host_reads[1]);
    pass.wall_ref_s = pass.setup_ref_s;
    for (const auto& [row, tm] : views) {
        Scope rs(trace, row + "/atpg");
        auto o = engine_options(w, seed, jobs);
        o.scope_prefix = tm.mut_prefix;
        pass.view_gates += tm.netlist.logic_gate_count();
        const double atpg0 = pass.atpg_s, check0 = pass.check_s;
        const auto t0 = Clock::now();
        run_atpg_row(pass, trace, row, tm.netlist, o);
        const double row_s = since(t0) - (pass.check_s - check0);
        const double before = pass.host_reads.back();
        pass.host_reads.push_back(host.read());
        const double after = pass.host_reads.back();
        pass.wall_s += row_s;
        pass.wall_ref_s += HostSpeed::scale(row_s, before, after);
        pass.atpg_ref_s +=
            HostSpeed::scale(pass.atpg_s - atpg0, before, after);
    }
}

/// Self time per layer from the pass's spans, with run_atpg's self time
/// split by the engine phases the profiler attributed to that call.
void attribute(Pass& pass, const Trace& trace, size_t first_span,
               atpg::EngineKind engine) {
    const auto self = trace.self_times();
    for (size_t i = first_span; i < trace.spans().size(); ++i) {
        const auto& s = trace.spans()[i];
        pass.layer_self_s[s.layer] += self[i];
        if (s.layer != "atpg") continue;
        const double random = get(s.work, "p:atpg.random");
        const double det = get(s.work, "p:atpg.deterministic");
        const double podem = get(s.work, "p:atpg.retry") +
                             (engine == atpg::EngineKind::Sat ? 0.0 : det);
        const double sat = get(s.work, "p:atpg.sat") +
                           (engine == atpg::EngineKind::Sat ? det : 0.0);
        const double compaction = get(s.work, "p:atpg.compaction");
        pass.layer_self_s["atpg.random"] += random;
        pass.layer_self_s["atpg.podem"] += podem;
        pass.layer_self_s["atpg.sat"] += sat;
        pass.layer_self_s["atpg.compaction"] += compaction;
    }
}

// ------------------------------------------------------------ aggregation

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile.
double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

template <class F>
double median_of(const std::vector<Pass>& passes, F&& f) {
    std::vector<double> v;
    for (const auto& p : passes) v.push_back(f(p));
    return median(v);
}

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

/// Sum of f over the first seed cycle (one pass per engine seed). Counts
/// and quality are taken over it, so they repeat exactly for one --seed
/// however many passes fit in the run.
template <class F>
double cycle_sum(const std::vector<Pass>& passes, F&& f) {
    double sum = 0.0;
    for (size_t i = 0; i < std::min(passes.size(), kSeedCycle); ++i) {
        sum += f(passes[i]);
    }
    return sum;
}

std::vector<Metric> end_to_end(const std::vector<Pass>& passes) {
    auto m = [&](auto f) { return median_of(passes, f); };
    auto c = [&](const char* key) {
        return cycle_sum(passes,
                         [key](const Pass& p) { return get(p.work, key); });
    };
    return {
        {"wall_ref_s", m([](const Pass& p) { return p.wall_ref_s; }), "s"},
        {"setup_s", m([](const Pass& p) { return p.setup_ref_s; }), "s"},
        {"atpg_ref_s", m([](const Pass& p) { return p.atpg_ref_s; }), "s"},
        {"coverage_percent", 100.0 * ratio(c("r:detected"), c("r:faults")),
         "%"},
        {"efficiency_percent", 100.0 * ratio(c("r:resolved"), c("r:faults")),
         "%"},
        {"view_gates",
         m([](const Pass& p) { return static_cast<double>(p.view_gates); }),
         "count"},
        {"peak_rss_mb", static_cast<double>(util::peak_rss_bytes()) / 1048576.0,
         "MB"},
    };
}

std::vector<Metric> per_layer(const std::vector<Pass>& passes) {
    auto m = [&](auto f) { return median_of(passes, f); };
    // Work counts: the mean pass of the first seed cycle.
    auto w = [&](const std::string& key) {
        return cycle_sum(passes,
                         [key](const Pass& p) { return get(p.work, key); }) /
               static_cast<double>(std::min(passes.size(), kSeedCycle));
    };
    std::vector<double> build_ms;
    for (const auto& p : passes) {
        build_ms.insert(build_ms.end(), p.build_ms.begin(), p.build_ms.end());
    }
    std::vector<Pass> traced, plain;
    for (const auto& p : passes) (p.traced ? traced : plain).push_back(p);
    auto self = [&](const std::string& layer) {
        return median_of(traced, [layer](const Pass& p) {
            auto it = p.layer_self_s.find(layer);
            return it == p.layer_self_s.end() ? 0.0 : it->second;
        });
    };
    auto share = [&](const std::string& layer) {
        return median_of(traced, [layer](const Pass& p) {
            auto it = p.layer_self_s.find(layer);
            return it == p.layer_self_s.end()
                       ? 0.0
                       : ratio(it->second, p.atpg_s);
        });
    };
    const double atpg_s = m([](const Pass& p) { return p.atpg_s; });
    const double backtracks = w("h:atpg.podem.backtracks.sum");
    const double solves = w("r:sat_attempts");
    // Busy time per executor, summed over the pass's run_atpg calls.
    auto busy_spread = [](const Pass& p) {
        std::vector<double> busy;
        for (const auto& [k, v] : p.work) {
            if (k.rfind("w:", 0) == 0) busy.push_back(v);
        }
        if (busy.empty()) return 0.0;
        auto [lo, hi] = std::minmax_element(busy.begin(), busy.end());
        double mean = 0.0;
        for (double b : busy) mean += b;
        mean /= static_cast<double>(busy.size());
        return ratio(*hi - *lo, mean);
    };
    auto busy_total = [](const Pass& p) {
        double s = 0.0;
        for (const auto& [k, v] : p.work) {
            if (k.rfind("w:", 0) == 0) s += v;
        }
        return s;
    };
    return {
        // plain seconds (the end-to-end times before host-speed scaling)
        // and the host-speed readings they were scaled by
        {"raw.wall_s", m([](const Pass& p) { return p.wall_s; }), "s"},
        {"raw.setup_s", m([](const Pass& p) { return p.setup_s; }), "s"},
        {"raw.atpg_s", atpg_s, "s"},
        {"raw.cpu_s", m([](const Pass& p) { return p.cpu_s; }), "s"},
        {"host.kernel_ms",
         1e3 * m([](const Pass& p) { return median(p.host_reads); }), "ms"},
        // rtl / elab
        {"rtl.parse_s", m([](const Pass& p) { return p.parse_s; }), "s"},
        {"elab.elaborate_s", m([](const Pass& p) { return p.elaborate_s; }),
         "s"},
        {"elab.instances", w("c:elab.instances"), "count"},
        // core: extraction and transform
        {"core.extract_s.flat",
         m([](const Pass& p) { return p.extract_flat_s; }), "s"},
        {"core.extract_s.composed",
         m([](const Pass& p) { return p.extract_composed_s; }), "s"},
        {"extract.cache.hits", w("c:extract.cache.hits"), "count"},
        {"extract.cache.misses", w("c:extract.cache.misses"), "count"},
        {"extract.cache.hit_ratio",
         ratio(w("c:extract.cache.hits"),
               w("c:extract.cache.hits") + w("c:extract.cache.misses")),
         "ratio"},
        {"core.build_s", m([](const Pass& p) { return p.build_s; }), "s"},
        {"core.build_ms.p50", percentile(build_ms, 50), "ms"},
        {"core.build_ms.p90", percentile(build_ms, 90), "ms"},
        {"core.view_gates",
         m([](const Pass& p) { return static_cast<double>(p.view_gates); }),
         "count"},
        // synth
        {"synth.synth_s",
         m([](const Pass& p) { return p.synth_in_build_s; }),
         "s"},
        {"synth.gates_built", w("c:synth.gates_built"), "count"},
        {"synth.optimize.gates_removed", w("c:synth.optimize.gates_removed"),
         "count"},
        {"synth.optimize.iterations", w("h:synth.optimize.iterations.sum"),
         "count"},
        // atpg engine phases (profiler deltas)
        {"atpg.faults", w("r:faults"), "count"},
        {"atpg.run_s", atpg_s, "s"},
        {"atpg.random_s", w("p:atpg.random"), "s"},
        {"atpg.deterministic_s", w("p:atpg.deterministic"), "s"},
        {"atpg.sat_s", w("p:atpg.sat"), "s"},
        {"atpg.compaction_s", w("p:atpg.compaction"), "s"},
        // fault simulation
        {"fault_sim.gate_evals", w("c:fault_sim.gate_evals"), "count"},
        {"fault_sim.faulty_frames", w("c:fault_sim.faulty_frames"), "count"},
        {"fault_sim.events_skipped", w("c:fault_sim.events_skipped"), "count"},
        {"fault_sim.faults_dropped", w("c:fault_sim.faults_dropped"), "count"},
        {"atpg.random.sequences", w("c:atpg.random.sequences"), "count"},
        {"fault_sim.gate_evals_per_s",
         m([](const Pass& p) {
             return ratio(get(p.work, "c:fault_sim.gate_evals"), p.atpg_s);
         }),
         "1/s"},
        // podem
        {"atpg.podem.calls", w("c:atpg.podem.calls"), "count"},
        {"atpg.podem.backtracks", backtracks, "count"},
        {"atpg.podem.decisions", w("c:atpg.podem.decisions"), "count"},
        {"atpg.podem.simulations", w("c:atpg.podem.simulations"), "count"},
        {"atpg.abort.backtrack_limit", w("c:atpg.abort.backtrack_limit"),
         "count"},
        {"podem.ms_per_backtrack",
         m([](const Pass& p) {
             return 1e3 * ratio(get(p.work, "p:atpg.deterministic"),
                                get(p.work, "h:atpg.podem.backtracks.sum"));
         }),
         "ms"},
        {"podem.success_ratio",
         ratio(w("r:tests"), w("c:atpg.podem.calls")), "ratio"},
        // sat: committed totals from the engine result, plus the solves
        // executed including discarded speculative ones (registry)
        {"sat.solves", solves, "count"},
        {"sat.conflicts", w("r:sat_conflicts"), "count"},
        {"sat.decisions", w("r:sat_decisions"), "count"},
        {"sat.propagations", w("r:sat_propagations"), "count"},
        {"sat.learned_clauses", w("r:sat_learned_clauses"), "count"},
        {"sat.solves_executed", w("c:sat.solves"), "count"},
        {"sat.ms_per_solve",
         m([](const Pass& p) {
             return 1e3 * ratio(get(p.work, "p:atpg.deterministic") +
                                    get(p.work, "p:atpg.sat"),
                                get(p.work, "r:sat_attempts"));
         }),
         "ms"},
        {"sat.resolved_ratio",
         ratio(w("r:sat_resolved"), solves), "ratio"},
        // thread pool
        {"atpg.pool.tasks", w("c:atpg.pool.tasks"), "count"},
        {"atpg.pool.steals", w("c:atpg.pool.steals"), "count"},
        {"atpg.pool.idle_share",
         m([](const Pass& p) {
             return ratio(get(p.work, "c:atpg.pool.idle_ns") / 1e9,
                          static_cast<double>(p.jobs) * p.atpg_s);
         }),
         "ratio"},
        {"atpg.worker.busy_s", m(busy_total), "s"},
        {"atpg.worker.busy_spread", m(busy_spread), "ratio"},
        // traced passes: self time per layer and the atpg phase split
        {"trace.self_s.rtl", self("rtl"), "s"},
        {"trace.self_s.elab", self("elab"), "s"},
        {"trace.self_s.core", self("core"), "s"},
        {"trace.self_s.atpg", self("atpg"), "s"},
        {"trace.self_s.bench", self("bench"), "s"},
        {"trace.atpg.random_share", share("atpg.random"), "ratio"},
        {"trace.atpg.podem_share", share("atpg.podem"), "ratio"},
        {"trace.atpg.sat_share", share("atpg.sat"), "ratio"},
        {"trace.atpg.compaction_share", share("atpg.compaction"), "ratio"},
        {"trace.overhead_s",
         median_of(traced, [](const Pass& p) { return p.wall_ref_s; }) -
             median_of(plain, [](const Pass& p) { return p.wall_ref_s; }),
         "s"},
    };
}

/// Values keep every digit measured (%.17g round-trips a double).
std::string metrics_json(const std::vector<Metric>& ms) {
    std::string out = "{";
    bool first = true;
    for (const auto& m : ms) {
        char value[40];
        std::snprintf(value, sizeof(value), "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        if (!first) out += ", ";
        first = false;
        out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
               m.unit + "\"}";
    }
    return out + "}";
}

// ------------------------------------------------------------------ main

struct Args {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    size_t jobs = 0;
    std::string detail;
    std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
    std::fprintf(stderr,
                 "factorbench: %s\nusage: factorbench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> [--jobs <n>] "
                 "[--detail <file>] [--trace-out <file>]\nworkloads:",
                 why.c_str());
    for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Args parse_args(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (i + 1 >= argc) usage("missing value for " + k);
        std::string v = argv[++i];
        try {
            if (k == "--workload") a.workload = v;
            else if (k == "--seed") a.seed = std::stoull(v);
            else if (k == "--seconds") a.seconds = std::stod(v);
            else if (k == "--trace") a.trace = std::stoi(v) != 0;
            else if (k == "--jobs") a.jobs = std::stoul(v);
            else if (k == "--detail") a.detail = v;
            else if (k == "--trace-out") a.trace_out = v;
            else usage("unknown option " + k);
        } catch (const std::logic_error&) {
            usage("bad value for " + k + ": " + v);
        }
    }
    if (a.workload.empty()) usage("--workload is required");
    if (!(a.seconds > 0)) usage("--seconds must be positive");
    return a;
}

/// The engine reads FACTOR_* variables (engine, SAT budget/frames, sim
/// width/mode, jobs). Every such input is pinned explicitly here, but a
/// variable this program does not know about could still change the
/// workload, so any FACTOR_* variable makes the run refuse.
void refuse_env_overrides() {
    for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
        if (std::strncmp(*e, "FACTOR_", 7) == 0) {
            std::fprintf(stderr,
                         "factorbench: refusing to run with %s set; it could "
                         "change the pinned workload\n",
                         *e);
            std::exit(2);
        }
    }
}

/// The engine's determinism contract: for one engine seed, committed
/// results are identical across runs and jobs values. Registry counts bumped by
/// speculative workers are not covered by it and are not compared.
std::vector<std::string> differences(const Pass& a, const Pass& b) {
    std::vector<std::string> keys;
    for (const auto& [k, v] : a.work) {
        if (k.rfind("r:", 0) == 0 && get(b.work, k) != v) keys.push_back(k);
    }
    for (const char* k : {"c:extract.cache.hits", "c:extract.cache.misses",
                          "c:synth.gates_built", "c:elab.instances"}) {
        if (get(a.work, k) != get(b.work, k)) keys.push_back(k);
    }
    if (a.view_gates != b.view_gates) keys.push_back("view_gates");
    return keys;
}

} // namespace

int main(int argc, char** argv) {
    const auto process_start = Clock::now();
    const Args args = parse_args(argc, argv);
    refuse_env_overrides();
    const Workload* w = find_workload(args.workload);
    if (w == nullptr) usage("unknown workload '" + args.workload + "'");
    // One ATPG worker by default: on a shared 4-vCPU host, runs with four
    // workers drifted about three times as much as single-worker runs
    // interleaved with them (wall time -31% against -10% within minutes).
    const size_t jobs = args.jobs > 0 ? args.jobs : 1;

    Trace trace(args.trace, args.seed, process_start);
    std::vector<Pass> passes;
    try {
        HostSpeed host;
        Scope run(trace, std::string("run/") + w->name);
        const auto measure_start = Clock::now();
        // At least one seed cycle (three passes, so every median has a
        // middle); no pass is started that the last one's length says
        // would end past the measuring time. In a traced run passes
        // alternate traced/untraced to measure the overhead.
        double last_pass_s = 0.0;
        while (passes.size() < kSeedCycle ||
               since(measure_start) + last_pass_s < args.seconds) {
            Pass pass;
            pass.engine_seed =
                args.seed * kSeedCycle + passes.size() % kSeedCycle;
            pass.traced = args.trace && passes.size() % 2 == 0;
            trace.set_on(pass.traced);
            const size_t first_span = trace.spans().size();
            const auto t0 = Clock::now();
            {
                Scope ps(trace, "pass/" + std::to_string(passes.size()));
                pass_table6(pass, trace, host, *w, pass.engine_seed, jobs);
            }
            last_pass_s = since(t0);
            trace.set_on(args.trace);
            if (pass.traced) attribute(pass, trace, first_span, w->engine);
            passes.push_back(std::move(pass));
        }
    } catch (const std::exception& ex) {
        std::fprintf(stderr, "factorbench: %s\n", ex.what());
        return 1;
    }

    size_t attempted = 0, failed = 0;
    std::vector<std::string> nondeterministic;
    for (size_t i = 0; i < passes.size(); ++i) {
        const Pass& p = passes[i];
        attempted += p.rows;
        failed += p.failed_rows;
        for (const auto& f : p.failures) {
            std::fprintf(stderr, "factorbench: check failed: %s\n", f.c_str());
        }
        for (const auto& k : differences(p, passes[i % kSeedCycle])) {
            nondeterministic.push_back(k);
        }
    }
    for (const auto& k : nondeterministic) {
        std::fprintf(stderr,
                     "factorbench: passes with one engine seed disagree "
                     "on %s\n",
                     k.c_str());
    }

    const auto e2e = end_to_end(passes);
    size_t build_samples = 0;
    for (const auto& p : passes) build_samples += p.build_ms.size();
    const auto layers = per_layer(passes);
    if (!args.detail.empty()) {
        std::ofstream d(args.detail);
        d << "{\"workload\": \"" << w->name << "\", \"seed\": " << args.seed
          << ", \"jobs\": " << jobs << ", \"passes\": " << passes.size()
          << ", \"build_samples\": " << build_samples
          << ", \"seed_cycle\": " << kSeedCycle;
        for (const auto& [key, field] :
             {std::pair<const char*, double Pass::*>{"wall_s", &Pass::wall_s},
              {"wall_ref_s", &Pass::wall_ref_s},
              {"atpg_ref_s", &Pass::atpg_ref_s},
              {"setup_ref_s", &Pass::setup_ref_s},
              {"setup_s", &Pass::setup_s},
              {"atpg_s", &Pass::atpg_s},
              {"cpu_s", &Pass::cpu_s},
              {"check_s", &Pass::check_s}}) {
            d << ", \"pass_" << key << "\": [";
            for (size_t i = 0; i < passes.size(); ++i) {
                d << (i ? ", " : "") << passes[i].*field;
            }
            d << ']';
        }
        d << ", \"end_to_end\": " << metrics_json(e2e)
          << ", \"per_layer\": " << metrics_json(layers) << "}\n";
    }
    if (args.trace && !args.trace_out.empty()) {
        std::ofstream t(args.trace_out);
        t << trace.to_ndjson();
    }
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": %s}\n",
                failed == 0 && nondeterministic.empty() ? "true" : "false",
                attempted, failed,
                metrics_json(args.trace ? layers : e2e).c_str());
    return 0;
}
