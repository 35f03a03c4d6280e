#include "portend/classify.h"

#include "portend/analyzer.h"

namespace portend::core {

const char *
raceClassName(RaceClass c)
{
    switch (c) {
      case RaceClass::SpecViolated: return "spec violated";
      case RaceClass::OutputDiffers: return "output differs";
      case RaceClass::KWitnessHarmless: return "k-witness harmless";
      case RaceClass::SingleOrdering: return "single ordering";
      case RaceClass::Unclassified: return "unclassified";
    }
    return "?";
}

std::optional<RaceClass>
raceClassFromName(const std::string &name)
{
    for (RaceClass c : kAllRaceClasses)
        if (name == raceClassName(c))
            return c;
    return std::nullopt;
}

const char *
detectorName(DetectorKind d)
{
    switch (d) {
      case DetectorKind::HappensBefore: return "hb";
      case DetectorKind::HappensBeforeNoMutex: return "hb-nomutex";
      case DetectorKind::Lockset: return "lockset";
    }
    return "?";
}

std::optional<DetectorKind>
detectorFromName(const std::string &name)
{
    for (DetectorKind d :
         {DetectorKind::HappensBefore, DetectorKind::HappensBeforeNoMutex,
          DetectorKind::Lockset}) {
        if (name == detectorName(d))
            return d;
    }
    return std::nullopt;
}

void
foldVerdict(const Classification &c, obs::MetricsShard &shard)
{
    using obs::Counter;
    shard.merge(c.metrics);
    shard.observe(obs::Hist::ClusterSteps,
                  c.metrics.counter(Counter::ClassifySteps));
    shard.observe(obs::Hist::ClusterDistinct,
                  c.metrics.counter(Counter::ClassifyDistinctSchedules));
    shard.add(Counter::ClassifyClusters, 1);
    shard.add(Counter::ClassifyKWitnesses,
              static_cast<std::uint64_t>(c.k));
    switch (c.cls) {
      case RaceClass::SpecViolated:
        shard.add(Counter::VerdictSpecViolated, 1);
        break;
      case RaceClass::OutputDiffers:
        shard.add(Counter::VerdictOutputDiffers, 1);
        break;
      case RaceClass::KWitnessHarmless:
        shard.add(Counter::VerdictKWitnessHarmless, 1);
        break;
      case RaceClass::SingleOrdering:
        shard.add(Counter::VerdictSingleOrdering, 1);
        break;
      case RaceClass::Unclassified:
        shard.add(Counter::VerdictUnclassified, 1);
        break;
    }
}

const char *
violationKindName(ViolationKind v)
{
    switch (v) {
      case ViolationKind::None: return "none";
      case ViolationKind::Crash: return "crash";
      case ViolationKind::Deadlock: return "deadlock";
      case ViolationKind::InfiniteLoop: return "infinite-loop";
      case ViolationKind::SemanticAssert: return "semantic";
      case ViolationKind::ReplayFailure: return "replay-failure";
    }
    return "?";
}

} // namespace portend::core
