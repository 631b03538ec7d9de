/**
 * @file
 * Deterministic random number generation for the simulator.
 *
 * Every stochastic component takes an explicit Rng (or a seed) so runs
 * are reproducible. The generator is xoshiro256**, which is fast and has
 * no observable bias for the distributions used here.
 *
 * ZipfGenerator reproduces the key-popularity model used in the paper's
 * Memcached evaluation (Section VI-E): keys drawn from a Zipf
 * distribution with configurable exponent, following Breslau et al.
 */

#ifndef TF_SIM_RNG_HH
#define TF_SIM_RNG_HH

#include <cstdint>
#include <vector>

namespace tf::sim {

/** xoshiro256** pseudo-random generator with distribution helpers. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x1234'5678'9abc'def0ULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n). @pre n > 0. */
    std::uint64_t below(std::uint64_t n);

    /** Bernoulli trial with probability @p p of true. */
    bool chance(double p);

    /** Exponential variate with mean @p mean. */
    double exponential(double mean);

    /** Log-normal variate with parameters of the underlying normal. */
    double logNormal(double mu, double sigma);

    /** Standard normal variate (Box-Muller). */
    double normal();

    /** Normal variate with given mean and standard deviation. */
    double normal(double mean, double stddev);

    /** Bounded Pareto variate with shape @p alpha on [lo, hi]. */
    double boundedPareto(double alpha, double lo, double hi);

  private:
    std::uint64_t _s[4];
    bool _haveSpare = false;
    double _spare = 0.0;
};

/**
 * Zipf-distributed integers over [0, n) via rejection-inversion
 * (Hormann & Derflinger), O(1) per sample for any n and exponent.
 */
class ZipfGenerator
{
  public:
    /**
     * @param n number of distinct items (ranks 1..n).
     * @param theta Zipf exponent (1.0 in the paper's Memcached setup).
     */
    ZipfGenerator(std::uint64_t n, double theta);

    /** Draw a rank in [0, n); rank 0 is the most popular item. */
    std::uint64_t operator()(Rng &rng) const;

    std::uint64_t items() const { return _n; }
    double theta() const { return _theta; }

  private:
    std::uint64_t _n;
    double _theta;
    double _hIntegralX1;
    double _hIntegralNumItems;
    double _s;

    double hIntegral(double x) const;
    double h(double x) const;
    double hIntegralInverse(double x) const;
};

} // namespace tf::sim

#endif // TF_SIM_RNG_HH
