/**
 * @file
 * Minimal deterministic JSON writer.
 *
 * The telemetry exports (stats registry, bench harness) need
 * machine-readable output that a CI job can diff byte-for-byte
 * between two same-seed runs. This writer emits a stable textual
 * form: insertion-ordered keys, two-space indentation, and a fixed
 * number format (integers when exactly representable, otherwise
 * shortest round-trip via "%.17g"; non-finite values become null
 * since JSON cannot carry them).
 */

#ifndef TF_SIM_JSON_HH
#define TF_SIM_JSON_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace tf::sim {

class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os, bool pretty = true);

    void beginObject();
    void endObject();
    void beginArray();
    void endArray();

    /** Key for the next value; only legal inside an object. */
    void name(const std::string &key);

    void value(const std::string &s);
    void value(const char *s);
    void value(double v);
    void value(std::uint64_t v);
    void value(int v);
    void value(bool v);
    void valueNull();

    /** name() + value() in one call. */
    template <typename T>
    void
    field(const std::string &key, T &&v)
    {
        name(key);
        value(std::forward<T>(v));
    }

    /** Render a double exactly as value(double) would. */
    static std::string formatDouble(double v);

  private:
    struct Frame
    {
        bool isObject;
        std::size_t children = 0;
    };

    std::ostream &_os;
    bool _pretty;
    std::vector<Frame> _stack;
    bool _pendingName = false;

    void beforeValue();
    void newline();
    void writeString(const std::string &s);
};

} // namespace tf::sim

#endif // TF_SIM_JSON_HH
