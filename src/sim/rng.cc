#include "sim/rng.hh"

#include <cmath>

#include "sim/logging.hh"

namespace tf::sim {

namespace {
inline std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

// splitmix64, used to expand the seed into the xoshiro state.
inline std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}
} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : _s)
        word = splitmix64(sm);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(_s[1] * 5, 7) * 9;
    const std::uint64_t t = _s[1] << 17;
    _s[2] ^= _s[0];
    _s[3] ^= _s[1];
    _s[1] ^= _s[2];
    _s[0] ^= _s[3];
    _s[2] ^= t;
    _s[3] = rotl(_s[3], 45);
    return result;
}

double
Rng::uniform()
{
    // 53 random mantissa bits -> double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::below(std::uint64_t n)
{
    TF_ASSERT(n > 0, "below(0)");
    // Modulo bias is negligible for the n used in this simulator
    // (n << 2^64), but use Lemire-style rejection to be exact.
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    std::uint64_t l = static_cast<std::uint64_t>(m);
    if (l < n) {
        std::uint64_t t = -n % n;
        while (l < t) {
            x = next();
            m = static_cast<__uint128_t>(x) * n;
            l = static_cast<std::uint64_t>(m);
        }
    }
    return static_cast<std::uint64_t>(m >> 64);
}

bool
Rng::chance(double p)
{
    return uniform() < p;
}

double
Rng::exponential(double mean)
{
    double u;
    do {
        u = uniform();
    } while (u <= 0.0);
    return -mean * std::log(u);
}

double
Rng::normal()
{
    if (_haveSpare) {
        _haveSpare = false;
        return _spare;
    }
    double u1, u2;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    u2 = uniform();
    double r = std::sqrt(-2.0 * std::log(u1));
    double theta = 2.0 * M_PI * u2;
    _spare = r * std::sin(theta);
    _haveSpare = true;
    return r * std::cos(theta);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

double
Rng::logNormal(double mu, double sigma)
{
    return std::exp(mu + sigma * normal());
}

double
Rng::boundedPareto(double alpha, double lo, double hi)
{
    TF_ASSERT(lo > 0 && hi > lo && alpha > 0, "bad bounded-pareto params");
    double u = uniform();
    double la = std::pow(lo, alpha);
    double ha = std::pow(hi, alpha);
    return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha);
}

// ---------------------------------------------------------------------
// ZipfGenerator: rejection-inversion sampling (Hormann & Derflinger 96),
// the same algorithm used by Apache Commons' RejectionInversionZipf.
// ---------------------------------------------------------------------

ZipfGenerator::ZipfGenerator(std::uint64_t n, double theta)
    : _n(n), _theta(theta)
{
    TF_ASSERT(n > 0, "zipf over empty set");
    TF_ASSERT(theta > 0, "zipf exponent must be positive");
    _hIntegralX1 = hIntegral(1.5) - 1.0;
    _hIntegralNumItems = hIntegral(static_cast<double>(n) + 0.5);
    _s = 2.0 - hIntegralInverse(hIntegral(2.5) - h(2.0));
}

double
ZipfGenerator::h(double x) const
{
    return std::exp(-_theta * std::log(x));
}

double
ZipfGenerator::hIntegral(double x) const
{
    double log_x = std::log(x);
    double t = log_x * (1.0 - _theta);
    // helper: (exp(t) - 1) / t, stable near t = 0
    double v;
    if (std::abs(t) > 1e-8)
        v = std::expm1(t) / t;
    else
        v = 1.0 + t / 2.0 * (1.0 + t / 3.0 * (1.0 + t / 4.0));
    return log_x * v;
}

double
ZipfGenerator::hIntegralInverse(double x) const
{
    double t = x * (1.0 - _theta);
    if (t < -1.0)
        t = -1.0;
    // helper: t / log1p(t), stable near t = 0
    double v;
    if (std::abs(t) > 1e-8)
        v = t / std::log1p(t);
    else
        v = 1.0 + t / 2.0 * (1.0 - t / 6.0 * (1.0 - t / 2.0));
    return std::exp(x / v);
}

std::uint64_t
ZipfGenerator::operator()(Rng &rng) const
{
    while (true) {
        double u = _hIntegralNumItems +
                   rng.uniform() * (_hIntegralX1 - _hIntegralNumItems);
        double x = hIntegralInverse(u);
        double k = std::floor(x + 0.5);
        if (k < 1.0)
            k = 1.0;
        else if (k > static_cast<double>(_n))
            k = static_cast<double>(_n);
        if (k - x <= _s || u >= hIntegral(k + 0.5) - h(k)) {
            return static_cast<std::uint64_t>(k) - 1;
        }
    }
}

} // namespace tf::sim
