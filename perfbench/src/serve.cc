#include "serve.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "batch.h"
#include "datalog/parser.h"
#include "eval/seminaive.h"
#include "storage/snapshot.h"
#include "workload/programs.h"

namespace perfbench {

using namespace pdatalog;

namespace {

uint64_t NameHash(std::string_view name) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  return h ^ (h >> 33);
}

// Answers to one query key: how many, and an order-independent hash of
// their constant names.
struct KeyAnswers {
  uint32_t count = 0;
  uint64_t hash = 0;
};

// Counts and hashes the answers of a rendered one-variable result
// ("X = name" lines).
KeyAnswers ParseRendered(const std::string& text) {
  KeyAnswers answers;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string_view line(text.data() + pos, end - pos);
    const size_t eq = line.find(" = ");
    if (eq != std::string_view::npos) {
      answers.count += 1;
      answers.hash += NameHash(line.substr(eq + 3));
    }
    pos = end + 1;
  }
  return answers;
}

void SleepUntilNs(uint64_t deadline_ns) {
  const uint64_t now = NowNs();
  if (deadline_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(deadline_ns - now));
  }
}

// One open-loop run: `keys.size()` queries due every 1/rate seconds
// from `start_ns`, spread round-robin over kReaders threads. A query is
// timed from its due time, so a stalled reader charges the wait to
// every query queued behind it.
std::vector<QueryRecord> OpenLoop(ServerEngine* engine,
                                  const Workload& workload,
                                  const std::vector<uint32_t>& keys,
                                  double rate, uint64_t start_ns,
                                  SpanLog* log,
                                  const std::vector<SpanBuffer*>& spans) {
  std::vector<QueryRecord> records(keys.size());
  const double period_ns = 1e9 / rate;
  auto reader = [&](int id) {
    SpanBuffer* buf = spans[static_cast<size_t>(id)];
    uint64_t prev_end = start_ns;
    for (size_t q = static_cast<size_t>(id); q < keys.size(); q += kReaders) {
      const uint64_t due =
          start_ns + static_cast<uint64_t>(period_ns * static_cast<double>(q));
      SleepUntilNs(due);
      QueryRecord& rec = records[q];
      rec.key = keys[q];
      const std::string text = workload.QueryText(keys[q]);
      const uint64_t request = log->NewRequest();
      const uint64_t top = buf->Open("query", request);
      const uint64_t begin = NowNs();
      const uint64_t free_at = std::max(due, prev_end);
      rec.late_ms =
          static_cast<double>(begin - std::min(begin, free_at)) * 1e-6;
      const uint64_t parse = buf->Open("ServerEngine::Parse", request, top);
      StatusOr<ParsedQuery> parsed = engine->Parse(text);
      rec.parse_us = buf->Close(parse) * 1e6;
      std::string rendered;
      if (parsed.ok()) {
        const uint64_t query = buf->Open("ServerEngine::Query", request, top);
        StatusOr<QueryResult> result = engine->Query(*parsed);
        rec.query_us = buf->Close(query) * 1e6;
        if (result.ok()) {
          const uint64_t render =
              buf->Open("ServerEngine::Render", request, top);
          rendered = engine->Render(*result);
          rec.render_us = buf->Close(render) * 1e6;
          rec.ok = true;
        }
      }
      buf->Close(top);
      const uint64_t end = NowNs();
      rec.latency_ms = static_cast<double>(end - due) * 1e-6;
      prev_end = end;
      const KeyAnswers answers = ParseRendered(rendered);
      rec.answers = answers.count;
      rec.answer_hash = answers.hash;
    }
  };
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) threads.emplace_back(reader, r);
  for (std::thread& t : threads) t.join();
  return records;
}

std::vector<uint32_t> QueryKeys(const Workload& workload, Rng* rng,
                                size_t count) {
  std::vector<uint32_t> keys(count);
  for (uint32_t& key : keys) {
    key = static_cast<uint32_t>(
        rng->Below(static_cast<uint64_t>(workload.nodes)));
  }
  return keys;
}

double P99(const std::vector<QueryRecord>& records) {
  std::vector<double> latencies;
  latencies.reserve(records.size());
  for (const QueryRecord& r : records) {
    // A failed query misses every latency limit.
    latencies.push_back(r.ok ? r.latency_ms : 1e9);
  }
  return Quantile(latencies, 0.99);
}

bool Fail(const char* what, const Status& status) {
  std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
               status.ToString().c_str());
  return false;
}

// Answers for keys 0..workload.nodes-1 of `workload`'s point query in
// `db` (names resolved through `symbols`).
std::vector<KeyAnswers> AnswersByKey(const Workload& workload,
                                     const Database& db,
                                     const SymbolTable& symbols) {
  std::vector<KeyAnswers> answers(static_cast<size_t>(workload.nodes));
  const Relation* rel = db.Find(symbols.Lookup(workload.query_predicate));
  if (rel == nullptr) return answers;
  // Key constant id -> key number.
  std::vector<std::pair<Value, uint32_t>> ids;
  for (int k = 0; k < workload.nodes; ++k) {
    const Symbol id =
        symbols.Lookup(workload.KeyName(static_cast<uint64_t>(k)));
    if (id != kInvalidSymbol) ids.emplace_back(id, static_cast<uint32_t>(k));
  }
  std::sort(ids.begin(), ids.end());
  for (size_t r = 0; r < rel->size(); ++r) {
    const Value first = rel->cell(r, 0);
    auto it = std::lower_bound(ids.begin(), ids.end(),
                               std::make_pair(first, uint32_t{0}));
    if (it == ids.end() || it->first != first) continue;
    KeyAnswers& a = answers[it->second];
    a.count += 1;
    a.hash += NameHash(symbols.Name(rel->cell(r, 1)));
  }
  return answers;
}

// The served snapshot must equal a from-scratch SemiNaiveEvaluate over
// the initial facts plus every streamed one. Fills `final_answers` from
// that evaluation.
bool CheckSnapshot(const Workload& workload, ServerEngine* engine,
                   const std::string& base_source,
                   const std::vector<std::string>& streamed,
                   const std::string& dir,
                   std::vector<KeyAnswers>* final_answers,
                   uint64_t* final_tuples) {
  std::string source = base_source;
  for (const std::string& fact : streamed) source += fact + "\n";
  SymbolTable symbols;
  StatusOr<Program> program = ParseProgram(source, &symbols);
  if (!program.ok()) return Fail("oracle ParseProgram", program.status());
  ProgramInfo info;
  Status status = Validate(*program, &info);
  if (!status.ok()) return Fail("oracle Validate", status);
  Database oracle;
  status = oracle.LoadFacts(*program);
  if (!status.ok()) return Fail("oracle LoadFacts", status);
  EvalStats stats;
  status = SemiNaiveEvaluate(*program, info, &oracle, &stats);
  if (!status.ok()) return Fail("oracle SemiNaiveEvaluate", status);
  *final_answers = AnswersByKey(workload, oracle, symbols);

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  StatusOr<size_t> saved = engine->SaveSnapshot(dir);
  if (!saved.ok()) return Fail("ServerEngine::SaveSnapshot", saved.status());
  Database served;
  StatusOr<size_t> loaded = LoadDatabase(dir, &symbols, &served);
  std::filesystem::remove_all(dir, ec);
  if (!loaded.ok()) return Fail("LoadDatabase", loaded.status());

  std::vector<std::string> predicates;
  for (const auto& [predicate, relation] : oracle.relations()) {
    predicates.push_back(symbols.Name(predicate));
  }
  for (const auto& [predicate, relation] : served.relations()) {
    predicates.push_back(symbols.Name(predicate));
  }
  const DbPrint want = FingerprintOf(oracle, symbols, predicates);
  const DbPrint got = FingerprintOf(served, symbols, predicates);
  *final_tuples = 0;
  for (const auto& [name, fp] : got) *final_tuples += fp.size;
  if (want != got) {
    std::fprintf(stderr,
                 "perfbench: served snapshot differs from a from-scratch "
                 "evaluation of initial + streamed facts\n");
    return false;
  }
  return true;
}

}  // namespace

ServeSession::ServeSession(const Workload& workload, uint64_t seed,
                           bool traced, SpanLog* log, SpanBuffer* setup_spans,
                           ServeResult* out)
    : workload_(workload),
      seed_(seed),
      traced_(traced),
      log_(log),
      setup_spans_(setup_spans),
      out_(out),
      updater_spans_(log->NewBuffer("updater")),
      key_rng_{DeriveSeed(seed, kQueryStream)},
      update_rng_{DeriveSeed(seed, kUpdateStream)} {
  for (int r = 0; r < kReaders; ++r) {
    reader_spans_.push_back(log->NewBuffer("reader" + std::to_string(r)));
  }
}

bool ServeSession::Start() {
  StatusOr<NamedProgram> named = FindProgram(workload_.program);
  if (!named.ok()) return Fail("FindProgram", named.status());
  ServerOptions options;
  if (traced_) {
    options.trace = true;
    // Two events per query: an engine serves two slices (0.8 s), 40K
    // events at the ladder's top rate (kMaxLadderQps); a drop fails
    // the run.
    options.trace_ring_capacity = size_t{1} << 17;
  }
  const uint64_t request = log_->NewRequest();
  const uint64_t top = setup_spans_->Open("setup", request);
  SymbolTable symbols;
  Database db;
  workload_.Generate(&symbols, &db, seed_);
  base_source_ = named->source + RenderFacts(db, symbols);
  const uint64_t create =
      setup_spans_->Open("ServerEngine::Create", request, top);
  StatusOr<std::unique_ptr<ServerEngine>> created =
      ServerEngine::Create(base_source_, options);
  setup_spans_->Close(create);
  out_->setup_s.push_back(setup_spans_->Close(top));
  if (!created.ok()) return Fail("ServerEngine::Create", created.status());
  engine_ = std::move(*created);
  first_fixed_ = out_->fixed.size();
  first_ladder_ = out_->ladder.size();
  first_streamed_ = out_->streamed.size();
  return true;
}

void ServeSession::FixedSlice(double seconds) {
  const size_t bursts = std::max<size_t>(
      1, static_cast<size_t>(seconds / kBurstIntervalS));
  const size_t first_fact = out_->streamed.size();
  for (size_t f = 0; f < bursts * static_cast<size_t>(workload_.burst_facts);
       ++f) {
    out_->streamed.push_back(
        workload_.UpdateFact(&update_rng_, out_->streamed.size()));
  }
  const std::vector<uint32_t> keys = QueryKeys(
      workload_, &key_rng_,
      std::max<size_t>(kReaders,
                       static_cast<size_t>(workload_.fixed_qps * seconds)));
  const uint64_t start = NowNs() + 5'000'000;
  std::thread updater([&] {
    for (size_t b = 0; b < bursts; ++b) {
      SleepUntilNs(start + static_cast<uint64_t>(kBurstIntervalS * 1e9 *
                                                 static_cast<double>(b)));
      const uint64_t request = log_->NewRequest();
      const uint64_t top = updater_spans_->Open("burst", request);
      bool ok = true;
      for (int f = 0; f < workload_.burst_facts; ++f) {
        const std::string& fact =
            out_->streamed[first_fact +
                           b * static_cast<size_t>(workload_.burst_facts) +
                           static_cast<size_t>(f)];
        const uint64_t submit = updater_spans_->Open(
            "ServerEngine::SubmitFactText", request, top);
        ok = engine_->SubmitFactText(fact).ok() && ok;
        out_->submit_us.push_back(updater_spans_->Close(submit) * 1e6);
      }
      const uint64_t flush =
          updater_spans_->Open("ServerEngine::Flush", request, top);
      engine_->Flush();
      out_->flush_ms.push_back(updater_spans_->Close(flush) * 1e3);
      out_->visible_ms.push_back(updater_spans_->Close(top) * 1e3);
      out_->attempted += 1;
      if (!ok) {
        out_->failed += 1;
        std::fprintf(stderr, "perfbench: an update burst was rejected\n");
      }
    }
  });
  const std::vector<QueryRecord> records =
      OpenLoop(engine_.get(), workload_, keys, workload_.fixed_qps, start,
               log_, reader_spans_);
  updater.join();
  out_->fixed.insert(out_->fixed.end(), records.begin(), records.end());
}

// The ladder's rungs are the fixed rate times powers of 2^(1/8). The
// walk starts at the rung nearest 70% of the capacity the fixed slices
// imply (kReaders over the mean service time) and moves `jump_` rungs
// up after a step whose p99 met kP99LimitMs, down after a
// miss; every change of direction halves the jump, down to one rung.
// It settles where the limit is met about half the time, and
// sustained_qps is the geometric mean of the rates of its second half,
// which averages out the step-to-step noise a bisection would keep.
void ServeSession::LadderStep(double seconds) {
  if (!walk_started_) {
    walk_started_ = true;
    double service_ms = 0;
    for (const QueryRecord& r : out_->fixed) {
      service_ms += (r.parse_us + r.query_us + r.render_us) * 1e-3;
    }
    service_ms /= static_cast<double>(std::max<size_t>(1, out_->fixed.size()));
    const double capacity = kReaders * 1e3 / std::max(service_ms, 1e-3);
    const double octaves = std::log2(
        std::min(0.7 * capacity, kMaxLadderQps) / workload_.fixed_qps);
    rung_ = std::max(0, static_cast<int>(std::lround(8 * octaves)));
  }
  const double rate = workload_.fixed_qps * std::exp2(rung_ / 8.0);
  const std::vector<uint32_t> keys = QueryKeys(
      workload_, &key_rng_,
      std::max<size_t>(kReaders, static_cast<size_t>(rate * seconds)));
  const std::vector<QueryRecord> records = OpenLoop(
      engine_.get(), workload_, keys, rate, NowNs() + 5'000'000, log_,
      reader_spans_);
  const double p99 = P99(records);
  out_->ladder_rates.push_back(rate);
  out_->ladder_p99_ms.push_back(p99);
  out_->ladder.insert(out_->ladder.end(), records.begin(), records.end());
  const int next = p99 <= kP99LimitMs ? 1 : -1;
  if (direction_ != 0 && next != direction_) jump_ = std::max(1, jump_ / 2);
  direction_ = next;
  const int top_rung = static_cast<int>(
      8 * std::log2(kMaxLadderQps / workload_.fixed_qps));
  rung_ = std::clamp(rung_ + next * jump_, 0, top_rung);

  const size_t steps = out_->ladder_rates.size();
  double log_sum = 0;
  for (size_t i = steps / 2; i < steps; ++i) {
    log_sum += std::log(out_->ladder_rates[i]);
  }
  out_->sustained_qps =
      std::exp(log_sum / static_cast<double>(steps - steps / 2));
}

void ServeSession::Finish(const std::string& scratch_dir) {
  out_->fixed_ends.push_back(out_->fixed.size());
  out_->visible_ends.push_back(out_->visible_ms.size());
  engine_->Flush();
  out_->metrics = engine_->MetricsCopy();
  if (Tracer* tracer = engine_->tracer()) {
    const PhaseTimes maintenance = PhaseSelfTimes(*tracer->ring(0));
    auto add = [&](TracePhase phase, uint64_t* ns, uint64_t* spans) {
      *ns += maintenance.self(phase);
      *spans += maintenance.spans[static_cast<size_t>(phase)];
      return *spans == 0 ? 0.0
                         : static_cast<double>(*ns) * 1e-6 /
                               static_cast<double>(*spans);
    };
    out_->maintain_ms =
        add(TracePhase::kMaintain, &maintain_ns_, &maintain_spans_);
    out_->apply_ms = add(TracePhase::kApply, &apply_ns_, &apply_spans_);
    const uint64_t dropped = tracer->total_dropped();
    out_->trace_dropped += dropped;
    if (!maintenance.ok || dropped > 0) {
      std::fprintf(stderr, "perfbench: serving trace dropped %llu events\n",
                   static_cast<unsigned long long>(dropped));
      out_->attempted += 1;
      out_->failed += 1;
    }
  }

  std::vector<KeyAnswers> answers;
  out_->attempted += 1;
  const std::string dir = scratch_dir + "/snapshot-" + workload_.name;
  const std::vector<std::string> streamed(
      out_->streamed.begin() + static_cast<std::ptrdiff_t>(first_streamed_),
      out_->streamed.end());
  if (!CheckSnapshot(workload_, engine_.get(), base_source_, streamed, dir,
                     &answers, &out_->final_tuples)) {
    out_->failed += 1;
    answers.assign(static_cast<size_t>(workload_.nodes), KeyAnswers{});
  }
  engine_.reset();  // joins the maintenance and telemetry threads

  // Update facts only hang fresh constants above existing keys, so a
  // key's answers are the same in every snapshot: every answer this
  // engine gave must equal its final fixpoint's.
  uint64_t wrong = 0;
  const std::pair<std::vector<QueryRecord>*, size_t> served[] = {
      {&out_->fixed, first_fixed_}, {&out_->ladder, first_ladder_}};
  for (const auto& [records, first] : served) {
    for (size_t i = first; i < records->size(); ++i) {
      const QueryRecord& r = (*records)[i];
      const bool right = r.ok && r.answers == answers[r.key].count &&
                         r.answer_hash == answers[r.key].hash;
      wrong += right ? 0 : 1;
    }
    out_->attempted += records->size() - first;
  }
  out_->failed += wrong;
  if (wrong > 0) {
    std::fprintf(stderr, "perfbench: %llu query answers were wrong\n",
                 static_cast<unsigned long long>(wrong));
  }
}

}  // namespace perfbench
