#include "runtime/wire.h"

#include <algorithm>

#include <bit>
#include <cstring>

namespace aces::runtime::wire {

namespace {

/// Append-only byte writer. Little-endian integers; doubles as IEEE-754
/// bit patterns so values round-trip exactly.
class Writer {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) {
    out_.push_back(static_cast<std::uint8_t>(v));
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
      out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_.insert(out_.end(), s.begin(), s.end());
  }
  void f64_vec(const std::vector<double>& v) {
    u32(static_cast<std::uint32_t>(v.size()));
    for (const double x : v) f64(x);
  }
  void u32_vec(const std::vector<std::uint32_t>& v) {
    u32(static_cast<std::uint32_t>(v.size()));
    for (const std::uint32_t x : v) u32(x);
  }
  void u64_vec(const std::vector<std::uint64_t>& v) {
    u32(static_cast<std::uint32_t>(v.size()));
    for (const std::uint64_t x : v) u64(x);
  }

  /// Finishes the frame: prepends the 8-byte header to the payload.
  std::vector<std::uint8_t> frame(FrameType type) && {
    const std::array<std::uint8_t, 8> header =
        frame_header(type, static_cast<std::uint32_t>(out_.size()));
    std::vector<std::uint8_t> framed(header.size() + out_.size());
    std::copy(header.begin(), header.end(), framed.begin());
    std::copy(out_.begin(), out_.end(),
              framed.begin() + static_cast<std::ptrdiff_t>(header.size()));
    return framed;
  }

 private:
  std::vector<std::uint8_t> out_;
};

/// Bounds-checked byte reader: every accessor returns false once the
/// payload is exhausted, and the failure reason is recorded. Truncated or
/// hostile input degrades to a decode error, never to UB.
class Reader {
 public:
  Reader(const std::vector<std::uint8_t>& data, WireError* error)
      : data_(data.data()), size_(data.size()), error_(error) {}

  bool u8(std::uint8_t* v) {
    if (!need(1, "u8")) return false;
    *v = data_[pos_++];
    return true;
  }
  bool u32(std::uint32_t* v) {
    if (!need(4, "u32")) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i)
      *v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 4;
    return true;
  }
  bool u64(std::uint64_t* v) {
    if (!need(8, "u64")) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i)
      *v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return true;
  }
  bool f64(double* v) {
    std::uint64_t bits = 0;
    if (!u64(&bits)) return false;
    *v = std::bit_cast<double>(bits);
    return true;
  }
  bool str(std::string* v) {
    std::uint32_t n = 0;
    if (!u32(&n)) return false;
    if (!need(n, "string body")) return false;
    v->assign(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return true;
  }
  bool f64_vec(std::vector<double>* v) {
    std::uint32_t n = 0;
    if (!u32(&n)) return false;
    if (!need(static_cast<std::size_t>(n) * 8, "f64 vector body"))
      return false;
    v->resize(n);
    for (std::uint32_t i = 0; i < n; ++i) f64(&(*v)[i]);
    return true;
  }
  bool u32_vec(std::vector<std::uint32_t>* v) {
    std::uint32_t n = 0;
    if (!u32(&n)) return false;
    if (!need(static_cast<std::size_t>(n) * 4, "u32 vector body"))
      return false;
    v->resize(n);
    for (std::uint32_t i = 0; i < n; ++i) u32(&(*v)[i]);
    return true;
  }
  bool u64_vec(std::vector<std::uint64_t>* v) {
    std::uint32_t n = 0;
    if (!u32(&n)) return false;
    if (!need(static_cast<std::size_t>(n) * 8, "u64 vector body"))
      return false;
    v->resize(n);
    for (std::uint32_t i = 0; i < n; ++i) u64(&(*v)[i]);
    return true;
  }

  /// Payload bytes not yet read.
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }

  /// True when every payload byte was consumed — trailing garbage is
  /// rejected so frames cannot smuggle undeclared data.
  bool exhausted() {
    if (pos_ == size_) return true;
    set_error("trailing bytes after payload");
    return false;
  }

 private:
  bool need(std::size_t n, const char* what) {
    if (size_ - pos_ >= n) return true;
    set_error(std::string("truncated payload reading ") + what);
    return false;
  }
  void set_error(std::string reason) {
    if (error_ != nullptr && error_->reason.empty())
      error_->reason = std::move(reason);
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  WireError* error_;
};

void put(Writer& w, const SdoDelivery& d) {
  w.u32(d.dest_pe);
  w.u32(d.src_node);
  w.f64(d.birth);
}
bool get(Reader& r, SdoDelivery* d) {
  return r.u32(&d->dest_pe) && r.u32(&d->src_node) && r.f64(&d->birth);
}

void put(Writer& w, const Advert& a) {
  w.u32(a.pe);
  w.f64(a.rmax);
  w.f64(a.time);
}
bool get(Reader& r, Advert* a) {
  return r.u32(&a->pe) && r.f64(&a->rmax) && r.f64(&a->time);
}

void put_span(Writer& w, const obs::SdoSpan& s) {
  w.u64(s.trace_id);
  w.u32(s.source_pe);
  w.f64(s.start);
  w.f64(s.end);
  w.u8(s.dropped ? 1 : 0);
  w.u8(s.truncated ? 1 : 0);
  w.u8(static_cast<std::uint8_t>(s.hop_count));
  for (std::uint32_t i = 0; i < s.hop_count; ++i) {
    const obs::SpanHop& hop = s.hops[i];
    w.u32(hop.pe);
    w.u32(hop.kind);
    w.f64(hop.enqueue);
    w.f64(hop.dequeue);
    w.f64(hop.emit);
  }
}
bool get_span(Reader& r, obs::SdoSpan* s, WireError* error) {
  const auto fail = [error](const char* why) {
    if (error != nullptr && error->reason.empty()) error->reason = why;
    return false;
  };
  std::uint8_t dropped = 0, truncated = 0, hop_count = 0;
  if (!(r.u64(&s->trace_id) && r.u32(&s->source_pe) && r.f64(&s->start) &&
        r.f64(&s->end) && r.u8(&dropped) && r.u8(&truncated) &&
        r.u8(&hop_count))) {
    return false;
  }
  if (hop_count > obs::SdoSpan::kMaxHops) {
    return fail("span hop count exceeds kMaxHops");
  }
  s->dropped = dropped != 0;
  s->truncated = truncated != 0;
  s->hop_count = hop_count;
  for (std::uint32_t i = 0; i < s->hop_count; ++i) {
    obs::SpanHop& hop = s->hops[i];
    if (!(r.u32(&hop.pe) && r.u32(&hop.kind) && r.f64(&hop.enqueue) &&
          r.f64(&hop.dequeue) && r.f64(&hop.emit))) {
      return false;
    }
    if (hop.kind > static_cast<std::uint32_t>(obs::HopKind::kWireRecv)) {
      return fail("unknown span hop kind");
    }
  }
  return true;
}

void put_tick(Writer& w, const obs::TickRecord& t) {
  w.f64(t.time);
  w.u32(t.node);
  w.u32(t.pe);
  w.f64(t.buffer_occupancy);
  w.f64(t.arrived_sdos);
  w.f64(t.processed_sdos);
  w.f64(t.cpu_share);
  w.f64(t.cpu_seconds_used);
  w.f64(t.advertised_rmax);
  w.f64(t.downstream_rmax);
  w.f64(t.token_fill);
  w.u8(t.output_blocked ? 1 : 0);
  w.u64(t.dropped_total);
  w.u8(t.fault_flags);
  w.str(t.policy);
}
bool get_tick(Reader& r, obs::TickRecord* t) {
  std::uint8_t blocked = 0;
  if (!(r.f64(&t->time) && r.u32(&t->node) && r.u32(&t->pe) &&
        r.f64(&t->buffer_occupancy) && r.f64(&t->arrived_sdos) &&
        r.f64(&t->processed_sdos) && r.f64(&t->cpu_share) &&
        r.f64(&t->cpu_seconds_used) && r.f64(&t->advertised_rmax) &&
        r.f64(&t->downstream_rmax) && r.f64(&t->token_fill) &&
        r.u8(&blocked) && r.u64(&t->dropped_total) && r.u8(&t->fault_flags) &&
        r.str(&t->policy))) {
    return false;
  }
  t->output_blocked = blocked != 0;
  return true;
}

template <typename T, typename Put>
void put_vec(Writer& w, const std::vector<T>& v, Put put_one) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (const T& x : v) put_one(w, x);
}

template <typename T, typename Get>
bool get_vec(Reader& r, std::vector<T>* v, Get get_one, WireError* error,
             const char* what) {
  std::uint32_t n = 0;
  if (!r.u32(&n)) return false;
  // Each element is at least 8 bytes on the wire; a count that the rest of
  // the payload cannot hold is corruption, and must fail before the resize.
  if (static_cast<std::size_t>(n) * 8 > r.remaining()) {
    if (error != nullptr && error->reason.empty())
      error->reason = std::string("implausible element count for ") + what;
    return false;
  }
  v->resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!get_one(r, &(*v)[i])) return false;
  }
  return true;
}

void put_stats(Writer& w, const OnlineStats& s) {
  w.u64(s.count());
  w.f64(s.mean());
  w.f64(s.m2());
  w.f64(s.min());
  w.f64(s.max());
}
bool get_stats(Reader& r, OnlineStats* s) {
  std::uint64_t count = 0;
  double mean = 0.0, m2 = 0.0, min = 0.0, max = 0.0;
  if (!(r.u64(&count) && r.f64(&mean) && r.f64(&m2) && r.f64(&min) &&
        r.f64(&max)))
    return false;
  *s = OnlineStats::from_raw(count, mean, m2, min, max);
  return true;
}

void put_histogram(Writer& w, const LogHistogram& h) {
  w.u64_vec(h.raw_counts());
  w.u64(h.count());
  w.f64(h.min() );
  w.f64(h.max());
  w.f64(h.sum());
}
bool get_histogram(Reader& r, LogHistogram* h, WireError* error) {
  std::vector<std::uint64_t> counts;
  std::uint64_t count = 0;
  double min = 0.0, max = 0.0, sum = 0.0;
  if (!(r.u64_vec(&counts) && r.u64(&count) && r.f64(&min) && r.f64(&max) &&
        r.f64(&sum)))
    return false;
  if (counts.size() != LogHistogram().raw_counts().size()) {
    if (error != nullptr && error->reason.empty())
      error->reason = "histogram bucket layout mismatch";
    return false;
  }
  *h = LogHistogram::from_raw(std::move(counts), count, min, max, sum);
  return true;
}

}  // namespace

std::array<std::uint8_t, 8> frame_header(FrameType type,
                                         std::uint32_t payload_size) {
  std::array<std::uint8_t, 8> h{};
  h[0] = static_cast<std::uint8_t>(kMagic & 0xFF);
  h[1] = static_cast<std::uint8_t>(kMagic >> 8);
  h[2] = kWireVersion;
  h[3] = static_cast<std::uint8_t>(type);
  for (int i = 0; i < 4; ++i)
    h[4 + i] = static_cast<std::uint8_t>(payload_size >> (8 * i));
  return h;
}

std::optional<std::pair<FrameType, std::uint32_t>> parse_header(
    const std::uint8_t* data, WireError* error) {
  const auto fail = [error](const char* why)
      -> std::optional<std::pair<FrameType, std::uint32_t>> {
    if (error != nullptr && error->reason.empty()) error->reason = why;
    return std::nullopt;
  };
  const std::uint16_t magic =
      static_cast<std::uint16_t>(data[0] | (data[1] << 8));
  if (magic != kMagic) return fail("bad magic");
  if (data[2] != kWireVersion) return fail("unsupported wire version");
  const std::uint8_t type = data[3];
  if (type < static_cast<std::uint8_t>(FrameType::kHello) ||
      type > static_cast<std::uint8_t>(FrameType::kFlightDump)) {
    return fail("unknown frame type");
  }
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i)
    len |= static_cast<std::uint32_t>(data[4 + i]) << (8 * i);
  if (len > kMaxFramePayload) return fail("payload length exceeds cap");
  return std::make_pair(static_cast<FrameType>(type), len);
}

std::optional<Frame> parse_frame(const std::uint8_t* data, std::size_t size,
                                 WireError* error) {
  const auto fail = [error](const char* why) -> std::optional<Frame> {
    if (error != nullptr && error->reason.empty()) error->reason = why;
    return std::nullopt;
  };
  if (size < 8) return fail("short frame (no complete header)");
  const auto header = parse_header(data, error);
  if (!header.has_value()) return std::nullopt;
  const auto [type, len] = *header;
  if (size != 8 + static_cast<std::size_t>(len)) {
    return fail("frame size does not match header length");
  }
  Frame frame;
  frame.type = type;
  frame.payload.assign(data + 8, data + size);
  return frame;
}

std::vector<std::uint8_t> encode(const Hello& v) {
  Writer w;
  w.u32(v.rank);
  w.u64(v.pid);
  return std::move(w).frame(FrameType::kHello);
}

std::optional<Hello> decode_hello(const std::vector<std::uint8_t>& payload,
                                  WireError* error) {
  Reader r(payload, error);
  Hello v;
  if (!(r.u32(&v.rank) && r.u64(&v.pid) && r.exhausted())) {
    return std::nullopt;
  }
  return v;
}

std::vector<std::uint8_t> encode(const Config& v) {
  Writer w;
  w.u32(v.rank);
  w.u32(v.num_workers);
  w.u32(v.substeps);
  w.u64(v.seed);
  w.f64(v.duration);
  w.f64(v.warmup);
  w.f64(v.dt);
  w.u8(v.policy);
  w.f64(v.staleness);
  w.u32(v.batch);
  w.u32(v.channel_capacity);
  w.f64(v.heartbeat_interval);
  w.u64(v.start_quantum);
  w.str(v.topology);
  w.str(v.faults);
  w.f64_vec(v.plan_cpu);
  w.f64_vec(v.plan_rin);
  w.f64_vec(v.plan_rout);
  w.f64(v.span_sample);
  w.u8(v.record_trace);
  return std::move(w).frame(FrameType::kConfig);
}

std::optional<Config> decode_config(const std::vector<std::uint8_t>& payload,
                                    WireError* error) {
  Reader r(payload, error);
  Config v;
  if (!(r.u32(&v.rank) && r.u32(&v.num_workers) && r.u32(&v.substeps) &&
        r.u64(&v.seed) && r.f64(&v.duration) && r.f64(&v.warmup) &&
        r.f64(&v.dt) && r.u8(&v.policy) && r.f64(&v.staleness) &&
        r.u32(&v.batch) && r.u32(&v.channel_capacity) &&
        r.f64(&v.heartbeat_interval) && r.u64(&v.start_quantum) &&
        r.str(&v.topology) && r.str(&v.faults) && r.f64_vec(&v.plan_cpu) &&
        r.f64_vec(&v.plan_rin) && r.f64_vec(&v.plan_rout) &&
        r.f64(&v.span_sample) && r.u8(&v.record_trace) && r.exhausted())) {
    return std::nullopt;
  }
  return v;
}

std::vector<std::uint8_t> encode(const StepGo& v) {
  Writer w;
  w.u64(v.quantum);
  w.u8(v.flags);
  put_vec(w, v.deliveries, [](Writer& w2, const SdoDelivery& d) {
    put(w2, d);
  });
  put_vec(w, v.adverts, [](Writer& w2, const Advert& a) { put(w2, a); });
  w.u32_vec(v.congested_pes);
  w.u32_vec(v.down_nodes);
  w.u32_vec(v.up_nodes);
  return std::move(w).frame(FrameType::kStepGo);
}

std::optional<StepGo> decode_step_go(const std::vector<std::uint8_t>& payload,
                                     WireError* error) {
  Reader r(payload, error);
  StepGo v;
  if (!(r.u64(&v.quantum) && r.u8(&v.flags) &&
        get_vec(r, &v.deliveries,
                [](Reader& r2, SdoDelivery* d) { return get(r2, d); }, error,
                "deliveries") &&
        get_vec(r, &v.adverts,
                [](Reader& r2, Advert* a) { return get(r2, a); }, error,
                "adverts") &&
        r.u32_vec(&v.congested_pes) && r.u32_vec(&v.down_nodes) &&
        r.u32_vec(&v.up_nodes) && r.exhausted())) {
    return std::nullopt;
  }
  return v;
}

std::vector<std::uint8_t> encode(const StepDone& v) {
  Writer w;
  w.u64(v.quantum);
  put_vec(w, v.deliveries, [](Writer& w2, const SdoDelivery& d) {
    put(w2, d);
  });
  put_vec(w, v.adverts, [](Writer& w2, const Advert& a) { put(w2, a); });
  w.u32_vec(v.congested_pes);
  w.u32_vec(v.crashed_nodes);
  w.u32_vec(v.restored_nodes);
  return std::move(w).frame(FrameType::kStepDone);
}

std::optional<StepDone> decode_step_done(
    const std::vector<std::uint8_t>& payload, WireError* error) {
  Reader r(payload, error);
  StepDone v;
  if (!(r.u64(&v.quantum) &&
        get_vec(r, &v.deliveries,
                [](Reader& r2, SdoDelivery* d) { return get(r2, d); }, error,
                "deliveries") &&
        get_vec(r, &v.adverts,
                [](Reader& r2, Advert* a) { return get(r2, a); }, error,
                "adverts") &&
        r.u32_vec(&v.congested_pes) && r.u32_vec(&v.crashed_nodes) &&
        r.u32_vec(&v.restored_nodes) && r.exhausted())) {
    return std::nullopt;
  }
  return v;
}

std::vector<std::uint8_t> encode(const Heartbeat& v) {
  Writer w;
  w.u32(v.rank);
  w.u64(v.quantum);
  return std::move(w).frame(FrameType::kHeartbeat);
}

std::optional<Heartbeat> decode_heartbeat(
    const std::vector<std::uint8_t>& payload, WireError* error) {
  Reader r(payload, error);
  Heartbeat v;
  if (!(r.u32(&v.rank) && r.u64(&v.quantum) && r.exhausted())) {
    return std::nullopt;
  }
  return v;
}

std::vector<std::uint8_t> encode(const Targets& v) {
  Writer w;
  w.u64(v.revision);
  w.f64_vec(v.cpu);
  w.f64_vec(v.rin);
  w.f64_vec(v.rout);
  return std::move(w).frame(FrameType::kTargets);
}

std::optional<Targets> decode_targets(const std::vector<std::uint8_t>& payload,
                                      WireError* error) {
  Reader r(payload, error);
  Targets v;
  if (!(r.u64(&v.revision) && r.f64_vec(&v.cpu) && r.f64_vec(&v.rin) &&
        r.f64_vec(&v.rout) && r.exhausted())) {
    return std::nullopt;
  }
  return v;
}

std::vector<std::uint8_t> encode(const Report& v) {
  Writer w;
  const metrics::RunReport& r = v.report;
  w.u64(v.rank);
  w.f64(r.measured_seconds);
  w.f64(r.weighted_throughput);
  w.f64(r.output_rate);
  put_stats(w, r.latency);
  put_histogram(w, r.latency_histogram);
  w.u64(r.internal_drops);
  w.u64(r.ingress_drops);
  w.u64(r.sdos_processed);
  w.f64(r.cpu_utilization);
  put_stats(w, r.buffer_fill);
  w.u64_vec(r.egress_outputs);
  w.u32(static_cast<std::uint32_t>(r.per_pe.size()));
  for (const metrics::PeAccounting& pe : r.per_pe) {
    w.u64(pe.arrived);
    w.u64(pe.processed);
    w.u64(pe.emitted);
    w.u64(pe.dropped_input);
    w.f64(pe.cpu_seconds);
  }
  w.u64(r.events_executed);
  w.u64(r.reoptimizations);
  return std::move(w).frame(FrameType::kReport);
}

std::optional<Report> decode_report(const std::vector<std::uint8_t>& payload,
                                    WireError* error) {
  Reader r(payload, error);
  Report v;
  metrics::RunReport& rep = v.report;
  if (!(r.u64(&v.rank) && r.f64(&rep.measured_seconds) &&
        r.f64(&rep.weighted_throughput) && r.f64(&rep.output_rate) &&
        get_stats(r, &rep.latency) &&
        get_histogram(r, &rep.latency_histogram, error) &&
        r.u64(&rep.internal_drops) && r.u64(&rep.ingress_drops) &&
        r.u64(&rep.sdos_processed) && r.f64(&rep.cpu_utilization) &&
        get_stats(r, &rep.buffer_fill) && r.u64_vec(&rep.egress_outputs))) {
    return std::nullopt;
  }
  std::uint32_t pe_count = 0;
  if (!r.u32(&pe_count)) return std::nullopt;
  if (static_cast<std::size_t>(pe_count) * 40 > r.remaining()) {  // 5 × 8 B
    if (error != nullptr && error->reason.empty())
      error->reason = "implausible per-PE accounting count";
    return std::nullopt;
  }
  rep.per_pe.resize(pe_count);
  for (metrics::PeAccounting& pe : rep.per_pe) {
    if (!(r.u64(&pe.arrived) && r.u64(&pe.processed) && r.u64(&pe.emitted) &&
          r.u64(&pe.dropped_input) && r.f64(&pe.cpu_seconds))) {
      return std::nullopt;
    }
  }
  if (!(r.u64(&rep.events_executed) && r.u64(&rep.reoptimizations) &&
        r.exhausted())) {
    return std::nullopt;
  }
  return v;
}

std::vector<std::uint8_t> encode_shutdown() {
  Writer w;
  return std::move(w).frame(FrameType::kShutdown);
}

std::vector<std::uint8_t> encode(const MetricsReport& v) {
  Writer w;
  w.u32(v.rank);
  w.u64(v.quantum);
  put_vec(w, v.counters, [](Writer& w2, const MetricsCounter& c) {
    w2.str(c.name);
    w2.u64(c.delta);
  });
  put_vec(w, v.gauges, [](Writer& w2, const MetricsGauge& g) {
    w2.str(g.name);
    w2.f64(g.value);
  });
  put_vec(w, v.pe_latency, [](Writer& w2, const PeLatencySnapshot& p) {
    w2.u32(p.pe);
    put_histogram(w2, p.wait);
    put_histogram(w2, p.service);
  });
  put_vec(w, v.path_latency, [](Writer& w2, const PathLatencySnapshot& p) {
    w2.u64(p.id);
    w2.str(p.label);
    put_histogram(w2, p.end_to_end);
  });
  put_vec(w, v.perf, [](Writer& w2, const PerfCell& c) {
    w2.str(c.name);
    w2.u64(c.calls);
    w2.u64(c.ns);
  });
  put_vec(w, v.trace, [](Writer& w2, const obs::TickRecord& t) {
    put_tick(w2, t);
  });
  return std::move(w).frame(FrameType::kMetricsReport);
}

std::optional<MetricsReport> decode_metrics_report(
    const std::vector<std::uint8_t>& payload, WireError* error) {
  Reader r(payload, error);
  MetricsReport v;
  if (!(r.u32(&v.rank) && r.u64(&v.quantum) &&
        get_vec(r, &v.counters,
                [](Reader& r2, MetricsCounter* c) {
                  return r2.str(&c->name) && r2.u64(&c->delta);
                },
                error, "metric counters") &&
        get_vec(r, &v.gauges,
                [](Reader& r2, MetricsGauge* g) {
                  return r2.str(&g->name) && r2.f64(&g->value);
                },
                error, "metric gauges") &&
        get_vec(r, &v.pe_latency,
                [error](Reader& r2, PeLatencySnapshot* p) {
                  return r2.u32(&p->pe) &&
                         get_histogram(r2, &p->wait, error) &&
                         get_histogram(r2, &p->service, error);
                },
                error, "PE latency snapshots") &&
        get_vec(r, &v.path_latency,
                [error](Reader& r2, PathLatencySnapshot* p) {
                  return r2.u64(&p->id) && r2.str(&p->label) &&
                         get_histogram(r2, &p->end_to_end, error);
                },
                error, "path latency snapshots") &&
        get_vec(r, &v.perf,
                [](Reader& r2, PerfCell* c) {
                  return r2.str(&c->name) && r2.u64(&c->calls) &&
                         r2.u64(&c->ns);
                },
                error, "perf cells") &&
        get_vec(r, &v.trace,
                [](Reader& r2, obs::TickRecord* t) {
                  return get_tick(r2, t);
                },
                error, "trace records") &&
        r.exhausted())) {
    return std::nullopt;
  }
  return v;
}

std::vector<std::uint8_t> encode(const SpanBatch& v) {
  Writer w;
  w.u32(v.rank);
  w.u64(v.quantum);
  put_vec(w, v.completed, [](Writer& w2, const obs::SdoSpan& s) {
    put_span(w2, s);
  });
  put_vec(w, v.handoffs, [](Writer& w2, const SpanHandoff& h) {
    w2.u32(h.dest_pe);
    w2.u32(h.src_node);
    w2.u32(h.index);
    put_span(w2, h.span);
  });
  return std::move(w).frame(FrameType::kSpanBatch);
}

std::optional<SpanBatch> decode_span_batch(
    const std::vector<std::uint8_t>& payload, WireError* error) {
  Reader r(payload, error);
  SpanBatch v;
  if (!(r.u32(&v.rank) && r.u64(&v.quantum) &&
        get_vec(r, &v.completed,
                [error](Reader& r2, obs::SdoSpan* s) {
                  return get_span(r2, s, error);
                },
                error, "completed spans") &&
        get_vec(r, &v.handoffs,
                [error](Reader& r2, SpanHandoff* h) {
                  return r2.u32(&h->dest_pe) && r2.u32(&h->src_node) &&
                         r2.u32(&h->index) && get_span(r2, &h->span, error);
                },
                error, "span handoffs") &&
        r.exhausted())) {
    return std::nullopt;
  }
  return v;
}

std::vector<std::uint8_t> encode(const FlightDump& v) {
  Writer w;
  w.u32(v.rank);
  w.str(v.event);
  w.f64(v.time);
  w.u64(v.pushed);
  put_vec(w, v.recent, [](Writer& w2, const obs::SdoSpan& s) {
    put_span(w2, s);
  });
  put_vec(w, v.in_flight, [](Writer& w2, const obs::SdoSpan& s) {
    put_span(w2, s);
  });
  return std::move(w).frame(FrameType::kFlightDump);
}

std::optional<FlightDump> decode_flight_dump(
    const std::vector<std::uint8_t>& payload, WireError* error) {
  Reader r(payload, error);
  FlightDump v;
  if (!(r.u32(&v.rank) && r.str(&v.event) && r.f64(&v.time) &&
        r.u64(&v.pushed) &&
        get_vec(r, &v.recent,
                [error](Reader& r2, obs::SdoSpan* s) {
                  return get_span(r2, s, error);
                },
                error, "recent spans") &&
        get_vec(r, &v.in_flight,
                [error](Reader& r2, obs::SdoSpan* s) {
                  return get_span(r2, s, error);
                },
                error, "in-flight spans") &&
        r.exhausted())) {
    return std::nullopt;
  }
  return v;
}

const char* to_string(FrameType type) {
  switch (type) {
    case FrameType::kHello: return "hello";
    case FrameType::kConfig: return "config";
    case FrameType::kStepGo: return "step_go";
    case FrameType::kStepDone: return "step_done";
    case FrameType::kHeartbeat: return "heartbeat";
    case FrameType::kTargets: return "targets";
    case FrameType::kReport: return "report";
    case FrameType::kShutdown: return "shutdown";
    case FrameType::kMetricsReport: return "metrics_report";
    case FrameType::kSpanBatch: return "span_batch";
    case FrameType::kFlightDump: return "flight_dump";
  }
  return "unknown";
}

}  // namespace aces::runtime::wire
