// In-memory span recorder for the benchmark's traced run. Spans are taken
// in the benchmark's own code around calls into the library (and from the
// public SearchObserver hooks); nothing is written until the run ends.

#ifndef EGOBW_PERFBENCH_TRACE_H_
#define EGOBW_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "core/ego_types.h"
#include "metrics.h"

namespace perfbench {

/// Thread-safe span list. A disabled tracer records nothing, so the
/// untraced run pays one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled)
      : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Seconds since construction.
  double Now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
  }

  /// Records a finished span and returns its id (-1 when disabled).
  int64_t Add(const char* name, double start, double end, int64_t parent,
              uint64_t request) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, start, end, parent, request});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  /// Opens a span whose end is filled in by Close (-1 when disabled).
  int64_t Open(const char* name, int64_t parent, uint64_t request) {
    double now = Now();
    return Add(name, now, now, parent, request);
  }

  void Close(int64_t id) {
    if (id < 0) return;
    double now = Now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end = now;
  }

  /// Snapshot of the spans recorded so far.
  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  /// Writes one JSON object per span (with its derived self time) to
  /// `path`. Returns false if the file cannot be written.
  bool WriteJsonLines(const std::string& path) const {
    std::vector<Span> all = spans();
    std::vector<double> self = SelfTimes(all);
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (size_t i = 0; i < all.size(); ++i) {
      const Span& s = all[i];
      std::fprintf(f,
                   "{\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                   "\"end\": %.9f, \"parent\": %lld, \"request\": %llu, "
                   "\"self\": %.9f}\n",
                   i, s.name.c_str(), s.start, s.end,
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request), self[i]);
    }
    return std::fclose(f) == 0;
  }

 private:
  const bool enabled_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // Guarded by mu_.
};

/// Closes a span at scope exit.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t parent,
             uint64_t request)
      : tracer_(tracer), id_(tracer->Open(name, parent, request)) {}
  ~ScopedSpan() { tracer_->Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

/// Turns the serial search's observer hooks into spans under the call's
/// span: "search.setup" from the call to the first OnPop, and one
/// "core.exact" per exact evaluation, from the candidate's OnBound (the
/// last hook before ComputeExactCb) to its OnExact.
class SearchSpans : public egobw::SearchObserver {
 public:
  SearchSpans(Tracer* tracer, int64_t call_span, uint64_t request)
      : tracer_(tracer),
        call_span_(call_span),
        request_(request),
        call_start_(tracer->Now()) {}

  void OnPop(egobw::VertexId /*v*/, double /*stale_bound*/) override {
    if (pops_++ == 0) {
      tracer_->Add("search.setup", call_start_, tracer_->Now(), call_span_,
                   request_);
    }
  }
  void OnBound(egobw::VertexId v, double /*dynamic_bound*/) override {
    bound_vertex_ = v;
    bound_time_ = tracer_->Now();
  }
  void OnExact(egobw::VertexId v, double /*cb*/) override {
    if (v != bound_vertex_) return;  // Not preceded by its bound read.
    double now = tracer_->Now();
    exact_seconds_.push_back(now - bound_time_);
    tracer_->Add("core.exact", bound_time_, now, call_span_, request_);
  }

  uint64_t pops() const { return pops_; }
  /// Duration of every exact evaluation, in call order.
  const std::vector<double>& exact_seconds() const { return exact_seconds_; }

 private:
  Tracer* tracer_;
  int64_t call_span_;
  uint64_t request_;
  double call_start_;
  uint64_t pops_ = 0;
  egobw::VertexId bound_vertex_ = ~egobw::VertexId{0};
  double bound_time_ = 0.0;
  std::vector<double> exact_seconds_;
};

}  // namespace perfbench

#endif  // EGOBW_PERFBENCH_TRACE_H_
