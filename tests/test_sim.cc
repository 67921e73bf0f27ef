/**
 * @file
 * Unit tests for the simulation kernel layer: RNG, config, stats,
 * kernel stepping and watchdog, table printing.
 */

#include <gtest/gtest.h>

#include "sim/config.hh"
#include "sim/kernel.hh"
#include "sim/log.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/table.hh"

namespace nifdy
{
namespace
{

class QuietEnv : public ::testing::Environment
{
  public:
    void SetUp() override { setQuiet(true); }
};

const auto *quietEnv =
    ::testing::AddGlobalTestEnvironment(new QuietEnv);

TEST(Rng, Deterministic)
{
    Rng a(42, 7);
    Rng b(42, 7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, StreamsDiffer)
{
    Rng a(42, 1);
    Rng b(42, 2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, SeedsDiffer)
{
    Rng a(1, 0);
    Rng b(2, 0);
    EXPECT_NE(a.next(), b.next());
}

TEST(Rng, BoundedInRange)
{
    Rng r(3, 0);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.nextBounded(17), 17u);
}

TEST(Rng, BoundedCoversAllValues)
{
    Rng r(5, 0);
    std::vector<int> seen(8, 0);
    for (int i = 0; i < 4000; ++i)
        ++seen[r.nextBounded(8)];
    for (int v : seen)
        EXPECT_GT(v, 0);
}

TEST(Rng, RangeInclusive)
{
    Rng r(9, 1);
    bool sawLo = false;
    bool sawHi = false;
    for (int i = 0; i < 2000; ++i) {
        auto v = r.range(3, 6);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 6);
        sawLo |= v == 3;
        sawHi |= v == 6;
    }
    EXPECT_TRUE(sawLo);
    EXPECT_TRUE(sawHi);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng r(11, 0);
    for (int i = 0; i < 1000; ++i) {
        double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, ChanceExtremes)
{
    Rng r(13, 0);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, ChanceRoughlyCalibrated)
{
    Rng r(17, 0);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += r.chance(0.3);
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, ZeroBoundPanics)
{
    Rng r(1, 0);
    EXPECT_THROW(r.nextBounded(0), std::logic_error);
}

TEST(Config, SetGetRoundTrip)
{
    Config c;
    c.set("alpha", std::string("hello"));
    c.set("beta", 42L);
    c.set("gamma", 2.5);
    c.set("delta", true);
    EXPECT_EQ(c.getString("alpha"), "hello");
    EXPECT_EQ(c.getInt("beta"), 42);
    EXPECT_DOUBLE_EQ(c.getDouble("gamma"), 2.5);
    EXPECT_TRUE(c.getBool("delta"));
}

TEST(Config, Fallbacks)
{
    Config c;
    EXPECT_EQ(c.getInt("missing", 7), 7);
    EXPECT_EQ(c.getString("missing", "x"), "x");
    EXPECT_FALSE(c.getBool("missing", false));
    EXPECT_DOUBLE_EQ(c.getDouble("missing", 1.5), 1.5);
}

TEST(Config, MissingKeyFatal)
{
    Config c;
    EXPECT_THROW(c.getInt("nope"), std::runtime_error);
}

TEST(Config, MalformedValueFatal)
{
    Config c;
    c.set("x", std::string("notanumber"));
    EXPECT_THROW(c.getInt("x"), std::runtime_error);
    EXPECT_THROW(c.getBool("x"), std::runtime_error);
}

TEST(Config, ParseArgs)
{
    Config c;
    const char *argv[] = {"prog", "nodes=64", "net=mesh2d", "stray",
                          "deep.key=1"};
    auto left = c.parseArgs(5, const_cast<char **>(argv));
    EXPECT_EQ(c.getInt("nodes"), 64);
    EXPECT_EQ(c.getString("net"), "mesh2d");
    EXPECT_EQ(c.getInt("deep.key"), 1);
    ASSERT_EQ(left.size(), 1u);
    EXPECT_EQ(left[0], "stray");
}

TEST(Config, UnreadKeyIsFatalWithDidYouMean)
{
    Config c;
    const char *argv[] = {"prog", "nodez=16", "cycles=100"};
    c.parseArgs(3, const_cast<char **>(argv));
    EXPECT_EQ(c.getInt("nodes", 64), 64);
    EXPECT_EQ(c.getInt("cycles", 0), 100);
    try {
        c.requireAllRead();
        FAIL() << "unread key accepted";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("'nodez'"), std::string::npos) << msg;
        EXPECT_NE(msg.find("did you mean 'nodes'"), std::string::npos)
            << msg;
        EXPECT_EQ(msg.find("'cycles'"), std::string::npos) << msg;
    }
}

TEST(Config, SetThenReadKeysPass)
{
    Config c;
    c.set("topology", std::string("cm5"));
    c.set("nodes", 16L);
    EXPECT_EQ(c.getString("topology", "fattree"), "cm5");
    EXPECT_EQ(c.getInt("nodes"), 16);
    EXPECT_NO_THROW(c.requireAllRead());
    // Overwriting a key makes the new value unread again.
    c.set("nodes", 32L);
    EXPECT_THROW(c.requireAllRead(), std::runtime_error);
    EXPECT_TRUE(c.has("nodes")); // has() is not a read
    EXPECT_THROW(c.requireAllRead(), std::runtime_error);
    EXPECT_EQ(c.getInt("nodes", 0), 32);
    EXPECT_NO_THROW(c.requireAllRead());
}

TEST(Config, AskedKeysIncludeAbsentOnes)
{
    Config c;
    c.set("a", 1L);
    c.getInt("a");
    c.getInt("b", 2);
    EXPECT_EQ(c.askedKeys(), (std::vector<std::string>{"a", "b"}));
}

TEST(Config, BooleanSpellings)
{
    Config c;
    for (const char *t : {"true", "1", "yes", "on"}) {
        c.set("k", std::string(t));
        EXPECT_TRUE(c.getBool("k")) << t;
    }
    for (const char *f : {"false", "0", "no", "off"}) {
        c.set("k", std::string(f));
        EXPECT_FALSE(c.getBool("k")) << f;
    }
}

TEST(Stats, CounterBasics)
{
    Counter c("x");
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(4);
    EXPECT_EQ(c.value(), 5u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, DistributionMoments)
{
    Distribution d("lat");
    for (std::uint64_t v : {4u, 8u, 12u})
        d.sample(v);
    EXPECT_EQ(d.count(), 3u);
    EXPECT_EQ(d.sum(), 24u);
    EXPECT_EQ(d.min(), 4u);
    EXPECT_EQ(d.max(), 12u);
    EXPECT_DOUBLE_EQ(d.mean(), 8.0);
}

TEST(Stats, DistributionBuckets)
{
    Distribution d("b");
    d.sample(0);
    d.sample(1);
    d.sample(2);
    d.sample(3);
    d.sample(1024);
    EXPECT_EQ(d.bucket(0), 2u);
    EXPECT_EQ(d.bucket(1), 2u);
    EXPECT_EQ(d.bucket(10), 1u);
    EXPECT_EQ(d.bucket(5), 0u);
}

TEST(Stats, DistributionPercentiles)
{
    Distribution e("empty");
    EXPECT_DOUBLE_EQ(e.percentile(0.50), 0.0);

    Distribution d("p");
    for (int i = 0; i < 100; ++i)
        d.sample(7);
    // All mass in one bucket: every percentile clamps to [min, max].
    EXPECT_DOUBLE_EQ(d.percentile(0.50), 7.0);
    EXPECT_DOUBLE_EQ(d.percentile(0.99), 7.0);
    EXPECT_DOUBLE_EQ(d.percentile(-1.0), 7.0);
    EXPECT_DOUBLE_EQ(d.percentile(2.0), 7.0);

    Distribution u("u");
    for (std::uint64_t v = 1; v <= 100; ++v)
        u.sample(v);
    double p50 = u.percentile(0.50);
    double p95 = u.percentile(0.95);
    double p99 = u.percentile(0.99);
    EXPECT_GE(p50, 1.0);
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
    EXPECT_LE(p99, 100.0);
    EXPECT_GE(p95, 64.0);
}

TEST(Stats, DistributionMerge)
{
    Distribution a("lat");
    Distribution b("lat");
    a.sample(1);
    a.sample(2);
    b.sample(100);
    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_EQ(a.sum(), 103u);
    EXPECT_EQ(a.min(), 1u);
    EXPECT_EQ(a.max(), 100u);

    Distribution empty("lat");
    a.merge(empty);
    EXPECT_EQ(a.count(), 3u);
    empty.merge(a);
    EXPECT_EQ(empty.count(), 3u);
    EXPECT_EQ(empty.min(), 1u);
    EXPECT_EQ(empty.max(), 100u);
}

TEST(Stats, TimeSeriesSampling)
{
    TimeSeries ts("pend", 3, 100);
    EXPECT_TRUE(ts.due(0));
    ts.record(0, {1, 2, 3});
    EXPECT_FALSE(ts.due(99));
    EXPECT_TRUE(ts.due(100));
    ts.record(100, {4, 5, 6});
    ASSERT_EQ(ts.rows(), 2u);
    EXPECT_EQ(ts.row(1)[0], 4u);
    EXPECT_EQ(ts.rowTime(1), 100u);
}

TEST(Stats, StatSetNamesAndDump)
{
    StatSet s;
    s.counter("a").inc(3);
    s.distribution("d").sample(5);
    EXPECT_EQ(s.counter("a").value(), 3u);
    auto dump = s.dump();
    EXPECT_NE(dump.find("a 3"), std::string::npos);
    EXPECT_NE(dump.find("count=1"), std::string::npos);
    EXPECT_NE(dump.find("p50="), std::string::npos);
}

TEST(Stats, StatSetDumpIsOrderIndependent)
{
    StatSet a;
    a.counter("z").inc(1);
    a.counter("a").inc(2);
    a.distribution("lat").sample(5);

    StatSet b;
    b.distribution("lat").sample(5);
    b.counter("a").inc(2);
    b.counter("z").inc(1);

    EXPECT_EQ(a.dump(), b.dump());
}

TEST(Stats, StatSetTimeSeriesRegistry)
{
    StatSet s;
    TimeSeries &ts = s.timeSeries("pend", 2, 50);
    EXPECT_EQ(s.findTimeSeries("pend"), &ts);
    EXPECT_EQ(s.findTimeSeries("nope"), nullptr);
    EXPECT_EQ(&s.timeSeries("pend", 2, 50), &ts);

    ts.record(0, {1, 2});
    ts.record(50, {3, 4});
    ASSERT_EQ(s.timeSeriesAll().size(), 1u);
    EXPECT_NE(s.dump().find("pend 2 50 2"), std::string::npos);

    std::string j = ts.json();
    EXPECT_EQ(j.front(), '{');
    EXPECT_NE(j.find("\"pend\""), std::string::npos);
    EXPECT_NE(j.find("[3,4]"), std::string::npos);

    s.reset();
    EXPECT_EQ(ts.rows(), 0u);
}

/** A component that counts its steps and reports activity. */
class TickCounter : public Steppable
{
  public:
    explicit TickCounter(Kernel *k, bool active = true)
        : kernel_(k), active_(active)
    {}
    void
    step(Cycle now) override
    {
        last = now;
        ++ticks;
        if (active_ && kernel_)
            kernel_->noteActivity();
    }
    Kernel *kernel_;
    bool active_;
    Cycle last = 0;
    int ticks = 0;
};

TEST(Kernel, StepsAllObjectsOncePerCycle)
{
    Kernel k;
    TickCounter a(&k);
    TickCounter b(&k);
    k.add(&a);
    k.add(&b);
    k.run(10);
    EXPECT_EQ(a.ticks, 10);
    EXPECT_EQ(b.ticks, 10);
    EXPECT_EQ(k.now(), 10u);
    EXPECT_EQ(a.last, 9u);
}

TEST(Kernel, RunStopsOnPredicate)
{
    Kernel k;
    TickCounter a(&k);
    k.add(&a);
    Cycle n = k.run(1000, [&] { return a.ticks >= 5; });
    EXPECT_EQ(n, 5u);
}

TEST(Kernel, WatchdogPanicsOnDeadlock)
{
    Kernel k;
    TickCounter idle(nullptr, false);
    k.add(&idle);
    k.setWatchdogLimit(50);
    EXPECT_THROW(k.run(1000, [] { return false; }), std::logic_error);
}

TEST(Kernel, QuiescenceWithoutPredicateJustStops)
{
    Kernel k;
    TickCounter idle(nullptr, false);
    k.add(&idle);
    k.setWatchdogLimit(50);
    Cycle n = k.run(1000);
    EXPECT_EQ(n, 50u);
}

TEST(Kernel, NullObjectPanics)
{
    Kernel k;
    EXPECT_THROW(k.add(nullptr), std::logic_error);
}

TEST(Table, AlignedOutput)
{
    Table t("demo");
    t.header({"net", "pkts"});
    t.row({"mesh", "123"});
    t.row({"fattree-long", "4"});
    std::string s = t.str();
    EXPECT_NE(s.find("== demo =="), std::string::npos);
    EXPECT_NE(s.find("fattree-long"), std::string::npos);
    // Columns align: "pkts" appears after the longest name width.
    auto headerPos = s.find("net");
    ASSERT_NE(headerPos, std::string::npos);
}

TEST(Table, CsvOutput)
{
    Table t("demo");
    t.header({"a", "b"});
    t.row({"1", "2"});
    EXPECT_EQ(t.csv(), "a,b\n1,2\n");
}

TEST(Table, NumberFormatting)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::num(42L), "42");
}

TEST(Log, PanicThrowsLogicError)
{
    EXPECT_THROW(panic("boom %d", 3), std::logic_error);
}

TEST(Log, FatalThrowsRuntimeError)
{
    EXPECT_THROW(fatal("bad config"), std::runtime_error);
}

} // namespace
} // namespace nifdy
