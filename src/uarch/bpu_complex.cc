#include "uarch/bpu_complex.hh"

#include "common/logging.hh"
#include "uarch/agree.hh"
#include "uarch/perceptron.hh"

namespace powerchop
{

const char *
largePredictorKindName(LargePredictorKind k)
{
    switch (k) {
      case LargePredictorKind::Tournament:
        return "tournament";
      case LargePredictorKind::Agree:
        return "agree";
      case LargePredictorKind::Perceptron:
        return "perceptron";
    }
    panic("unknown LargePredictorKind %d", static_cast<int>(k));
}

namespace
{

/** A new P built from args, or a copy of `from` (a P) when given. */
template <typename P, typename... Args>
std::unique_ptr<DirectionPredictor>
makeOrCopy(const DirectionPredictor *from, Args... args)
{
    if (from)
        return std::make_unique<P>(static_cast<const P &>(*from));
    return std::make_unique<P>(args...);
}

} // namespace

std::unique_ptr<DirectionPredictor>
BpuComplex::makeLarge(const BpuParams &params,
                      const DirectionPredictor *from)
{
    switch (params.largeKind) {
      case LargePredictorKind::Tournament:
        return makeOrCopy<TournamentPredictor>(from, params.large);
      case LargePredictorKind::Agree:
        return makeOrCopy<AgreePredictor>(
            from, params.large.globalEntries,
            params.large.localPatternEntries,
            params.large.globalHistoryBits);
      case LargePredictorKind::Perceptron:
        return makeOrCopy<PerceptronPredictor>(
            from, params.large.localHistoryEntries,
            params.large.globalHistoryBits * 2);
    }
    panic("unknown LargePredictorKind %d",
          static_cast<int>(params.largeKind));
}

BpuComplex::BpuComplex(const BpuParams &params)
    : params_(params),
      large_(makeLarge(params)),
      small_(params.smallPredictorEntries),
      largeBtb_(params.largeBtbEntries, params.btbAssoc),
      smallBtb_(params.smallBtbEntries, params.btbAssoc)
{
    if (params.largeKind == LargePredictorKind::Tournament) {
        tournamentLarge_ =
            static_cast<TournamentPredictor *>(large_.get());
    }
}

void
BpuComplex::gateLargeOff()
{
    if (!largeOn_)
        return;
    largeOn_ = false;
    // Until now the shadow would have trained exactly as the large
    // predictor did; fork it before the state below is lost.
    if (!shadowLarge_) {
        shadowLarge_ = makeLarge(params_, large_.get());
        if (tournamentLarge_) {
            tournamentShadow_ =
                static_cast<TournamentPredictor *>(shadowLarge_.get());
        }
    }
    // Global, chooser and BTB state is lost when the supply voltage is
    // cut (Table I "Gated Off State").
    large_->reset();
    largeBtb_.reset();
}

void
BpuComplex::gateLargeOn()
{
    largeOn_ = true;
    // Nothing to restore: the unit re-warms from scratch.
}

double
BpuComplex::largeWindowMispredictRate() const
{
    // Profiling reads the never-gated shadow so a freshly regated
    // (cold) large predictor does not masquerade as non-critical.
    return (shadowLarge_ ? *shadowLarge_ : *large_).windowMispredictRate();
}

double
BpuComplex::smallWindowMispredictRate() const
{
    return small_.windowMispredictRate();
}

void
BpuComplex::resetWindowStats()
{
    large_->resetWindow();
    if (shadowLarge_)
        shadowLarge_->resetWindow();
    small_.resetWindow();
}

} // namespace powerchop
