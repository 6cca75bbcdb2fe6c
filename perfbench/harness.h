/**
 * @file
 * Measurement plumbing for the end-to-end benchmark: wall clock,
 * percentiles, the in-memory span tracer, process-global counter
 * snapshots, a forwarding storage wrapper that times every storage
 * call, the interpreter oracle, and the seeded generator. Nothing
 * here changes what the system under test does; it only observes
 * the calls the benchmark makes into it.
 */

#ifndef LLVA_PERFBENCH_HARNESS_H
#define LLVA_PERFBENCH_HARNESS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "llee/storage.h"
#include "vm/interpreter.h"

namespace perfbench {

/** Milliseconds on the steady clock (arbitrary epoch). */
double nowMs();

/** Linear-interpolated quantile (\p q in [0,1]); 0 when empty. */
double quantile(std::vector<double> v, double q);

double mean(const std::vector<double> &v);

/** splitmix64: the one seeded generator the benchmark uses, so a
 *  seed means the same inputs on every platform. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : s_(seed) {}
    uint64_t next();
    /** Uniform in [0, n). */
    uint64_t below(uint64_t n) { return next() % n; }
    double unit() { return double(next() >> 11) * 0x1.0p-53; }

  private:
    uint64_t s_;
};

/** Visits 0..n-1 in a fresh seeded shuffle each round. */
class Rotation
{
  public:
    Rotation(size_t n, uint64_t seed);
    size_t next();
    /** True when every program has been visited equally often. */
    bool atRoundEnd() const { return pos_ == order_.size(); }

  private:
    Rng rng_;
    std::vector<size_t> order_;
    size_t pos_;
};

// --- Spans ------------------------------------------------------------

struct Span
{
    uint64_t request;
    const char *name;
    double start; ///< ms
    double end;   ///< ms
    int parent;   ///< index into the same tracer, -1 for a root
};

/**
 * Spans of one thread, kept in memory until the run ends. Spans
 * nest through an open-span stack, so a call made inside an open
 * span becomes its child without the callee knowing.
 */
class Tracer
{
  public:
    void setRequest(uint64_t id) { request_ = id; }
    int open(const char *name);
    void close(int id);
    /** A closed child of the innermost open span (for time a layer
     *  reports itself, e.g. CodeManager translate seconds). */
    void add(const char *name, double start, double end);
    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::vector<Span> spans_;
    std::vector<int> stack_;
    uint64_t request_ = 0;
};

/** RAII span; a null tracer records nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *t, const char *name)
        : t_(t), id_(t ? t->open(name) : -1)
    {}
    ~ScopedSpan()
    {
        if (t_)
            t_->close(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *t_;
    int id_;
};

/** Per span name: summed self time in ms (duration minus the union
 *  of its children's intervals). */
std::map<std::string, double>
selfTimes(const std::vector<const Tracer *> &tracers);

/** Write every span as one JSON object per line. */
bool writeSpans(const std::string &path,
                const std::vector<const Tracer *> &tracers);

// --- Process-global counters -----------------------------------------

/**
 * The Statistic/StageTimer values the per-layer report uses. They
 * are process-wide, so only before/after deltas around a request
 * mean anything.
 */
struct Counters
{
    double iselMs = 0, phiElimMs = 0, regallocMs = 0, frameMs = 0,
           encodeMs = 0;
    uint64_t instructionsSelected = 0, spills = 0, bytesEmitted = 0,
             passApplications = 0, promotions = 0;

    static Counters now();
    Counters operator-(const Counters &o) const;
    Counters &operator+=(const Counters &o);
    double stageMs() const
    {
        return iselMs + phiElimMs + regallocMs + frameMs + encodeMs;
    }
};

// --- Storage -----------------------------------------------------------

/** Forwards to another StorageAPI, recording a span per read and
 *  write and counting bytes read. */
class TracedStorage : public llva::StorageAPI
{
  public:
    TracedStorage(llva::StorageAPI &inner, Tracer &tracer)
        : inner_(inner), tracer_(tracer)
    {}

    uint64_t bytesRead() const { return bytesRead_; }

    bool createCache(const std::string &cache) override;
    bool deleteCache(const std::string &cache) override;
    uint64_t cacheSize(const std::string &cache) override;
    bool write(const std::string &cache, const std::string &name,
               const std::vector<uint8_t> &bytes) override;
    bool read(const std::string &cache, const std::string &name,
              std::vector<uint8_t> &bytes) override;
    uint64_t timestamp(const std::string &cache,
                       const std::string &name) override;
    bool remove(const std::string &cache,
                const std::string &name) override;
    std::vector<std::string> list(const std::string &cache) override;

  private:
    llva::StorageAPI &inner_;
    Tracer &tracer_;
    uint64_t bytesRead_ = 0;
};

// --- Oracle ------------------------------------------------------------

/** What the interpreter says a program prints and returns. */
struct Reference
{
    std::string output;
    uint64_t value = 0;
};

/** Run \p m's main under the Interpreter (the independent oracle);
 *  throws FatalError if the oracle itself traps. */
Reference interpretReference(const llva::Module &m);

/** True when an execution finished normally with the oracle's
 *  output and return value. */
bool matches(const llva::ExecResult &r, const std::string &output,
             const Reference &ref);

// --- Result line -------------------------------------------------------

/** Metrics of one run, printed as the final JSON line. */
class Report
{
  public:
    void add(const std::string &name, double value,
             const std::string &unit);
    /** Print `{"correct":…, "attempted":…, "failed":…, "metrics":…}`
     *  as one line on stdout. */
    void print(bool correct, uint64_t attempted,
               uint64_t failed) const;

  private:
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics_;
};

/** Process peak resident set size in MiB (getrusage). */
double peakRssMb();

} // namespace perfbench

#endif // LLVA_PERFBENCH_HARNESS_H
