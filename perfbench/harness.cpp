#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include <sys/resource.h>

#include "support/statistic.h"

using namespace llva;

namespace perfbench {

double
nowMs()
{
    using namespace std::chrono;
    return duration<double, std::milli>(
               steady_clock::now().time_since_epoch())
        .count();
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * double(v.size() - 1);
    size_t lo = size_t(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double
mean(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return v.empty() ? 0 : s / double(v.size());
}

uint64_t
Rng::next()
{
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

Rotation::Rotation(size_t n, uint64_t seed)
    : rng_(seed), order_(n), pos_(n)
{
    for (size_t i = 0; i < n; ++i)
        order_[i] = i;
}

size_t
Rotation::next()
{
    if (pos_ == order_.size()) {
        for (size_t i = order_.size(); i > 1; --i)
            std::swap(order_[i - 1], order_[rng_.below(i)]);
        pos_ = 0;
    }
    return order_[pos_++];
}

int
Tracer::open(const char *name)
{
    int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({request_, name, nowMs(), 0, parent});
    stack_.push_back(int(spans_.size() - 1));
    return stack_.back();
}

void
Tracer::close(int id)
{
    spans_[id].end = nowMs();
    stack_.pop_back();
}

void
Tracer::add(const char *name, double start, double end)
{
    int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({request_, name, start, end, parent});
}

std::map<std::string, double>
selfTimes(const std::vector<const Tracer *> &tracers)
{
    std::map<std::string, double> out;
    for (const Tracer *t : tracers) {
        const auto &spans = t->spans();
        std::vector<std::vector<std::pair<double, double>>> kids(
            spans.size());
        for (const Span &s : spans)
            if (s.parent >= 0)
                kids[s.parent].push_back({s.start, s.end});
        for (size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            // Union of the children's intervals, clipped to s.
            auto &iv = kids[i];
            std::sort(iv.begin(), iv.end());
            double covered = 0, curLo = 0, curHi = -1;
            for (auto [lo, hi] : iv) {
                lo = std::max(lo, s.start);
                hi = std::min(hi, s.end);
                if (hi <= lo)
                    continue;
                if (lo > curHi) {
                    if (curHi > curLo)
                        covered += curHi - curLo;
                    curLo = lo;
                    curHi = hi;
                } else {
                    curHi = std::max(curHi, hi);
                }
            }
            if (curHi > curLo)
                covered += curHi - curLo;
            out[s.name] += std::max(0.0, (s.end - s.start) - covered);
        }
    }
    return out;
}

bool
writeSpans(const std::string &path,
           const std::vector<const Tracer *> &tracers)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    for (size_t t = 0; t < tracers.size(); ++t)
        for (const Span &s : tracers[t]->spans())
            std::fprintf(f,
                         "{\"thread\":%zu,\"request\":%llu,\"name\":"
                         "\"%s\",\"start_ms\":%.6f,\"end_ms\":%.6f,"
                         "\"parent\":%d}\n",
                         t, (unsigned long long)s.request, s.name,
                         s.start, s.end, s.parent);
    return std::fclose(f) == 0;
}

namespace {

const StageTimer *
timer(const char *name)
{
    for (const StageTimer *t : stats::allTimers())
        if (std::string(t->name()) == name)
            return t;
    fatal("perfbench: no stage timer '%s'", name);
}

} // namespace

Counters
Counters::now()
{
    static const StageTimer *isel = timer("translate.isel");
    static const StageTimer *phi = timer("translate.phi_elim");
    static const StageTimer *ra = timer("translate.regalloc");
    static const StageTimer *frame = timer("translate.frame");
    static const StageTimer *enc = timer("translate.encode");
    Counters c;
    c.iselMs = isel->seconds() * 1e3;
    c.phiElimMs = phi->seconds() * 1e3;
    c.regallocMs = ra->seconds() * 1e3;
    c.frameMs = frame->seconds() * 1e3;
    c.encodeMs = enc->seconds() * 1e3;
    c.instructionsSelected = stats::value("codegen.instructions_selected");
    c.spills = stats::value("codegen.spills");
    c.bytesEmitted = stats::value("codegen.bytes_emitted");
    c.passApplications = stats::value("pass.applications");
    c.promotions = stats::value("llee.promotions");
    return c;
}

Counters
Counters::operator-(const Counters &o) const
{
    Counters d;
    d.iselMs = iselMs - o.iselMs;
    d.phiElimMs = phiElimMs - o.phiElimMs;
    d.regallocMs = regallocMs - o.regallocMs;
    d.frameMs = frameMs - o.frameMs;
    d.encodeMs = encodeMs - o.encodeMs;
    d.instructionsSelected =
        instructionsSelected - o.instructionsSelected;
    d.spills = spills - o.spills;
    d.bytesEmitted = bytesEmitted - o.bytesEmitted;
    d.passApplications = passApplications - o.passApplications;
    d.promotions = promotions - o.promotions;
    return d;
}

Counters &
Counters::operator+=(const Counters &o)
{
    iselMs += o.iselMs;
    phiElimMs += o.phiElimMs;
    regallocMs += o.regallocMs;
    frameMs += o.frameMs;
    encodeMs += o.encodeMs;
    instructionsSelected += o.instructionsSelected;
    spills += o.spills;
    bytesEmitted += o.bytesEmitted;
    passApplications += o.passApplications;
    promotions += o.promotions;
    return *this;
}

bool
TracedStorage::createCache(const std::string &cache)
{
    return inner_.createCache(cache);
}

bool
TracedStorage::deleteCache(const std::string &cache)
{
    return inner_.deleteCache(cache);
}

uint64_t
TracedStorage::cacheSize(const std::string &cache)
{
    return inner_.cacheSize(cache);
}

bool
TracedStorage::write(const std::string &cache, const std::string &name,
                     const std::vector<uint8_t> &bytes)
{
    ScopedSpan span(&tracer_, "llee.storage_write");
    return inner_.write(cache, name, bytes);
}

bool
TracedStorage::read(const std::string &cache, const std::string &name,
                    std::vector<uint8_t> &bytes)
{
    ScopedSpan span(&tracer_, "llee.storage_read");
    bool ok = inner_.read(cache, name, bytes);
    if (ok)
        bytesRead_ += bytes.size();
    return ok;
}

uint64_t
TracedStorage::timestamp(const std::string &cache,
                         const std::string &name)
{
    return inner_.timestamp(cache, name);
}

bool
TracedStorage::remove(const std::string &cache, const std::string &name)
{
    return inner_.remove(cache, name);
}

std::vector<std::string>
TracedStorage::list(const std::string &cache)
{
    return inner_.list(cache);
}

Reference
interpretReference(const Module &m)
{
    ExecutionContext ctx(m);
    Interpreter interp(ctx);
    ExecResult r = interp.run(m.getFunction("main"));
    if (!r.ok())
        fatal("perfbench: the oracle trapped (%s)", trapKindName(r.trap));
    return {ctx.output(), r.value.i};
}

bool
matches(const ExecResult &r, const std::string &output,
        const Reference &ref)
{
    return r.ok() && !r.paused && r.value.i == ref.value &&
           output == ref.output;
}

void
Report::add(const std::string &name, double value,
            const std::string &unit)
{
    metrics_.push_back({name, {value, unit}});
}

void
Report::print(bool correct, uint64_t attempted, uint64_t failed) const
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                "%llu, \"metrics\": {",
                correct ? "true" : "false",
                (unsigned long long)attempted,
                (unsigned long long)failed);
    for (size_t i = 0; i < metrics_.size(); ++i) {
        double v = metrics_[i].second.first;
        if (!std::isfinite(v))
            v = 0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics_[i].first.c_str(), v,
                    metrics_[i].second.second.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

} // namespace perfbench
