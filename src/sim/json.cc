#include "sim/json.hh"

#include <cmath>
#include <cstdio>

#include "sim/logging.hh"

namespace tf::sim {

JsonWriter::JsonWriter(std::ostream &os, bool pretty)
    : _os(os), _pretty(pretty)
{
}

void
JsonWriter::newline()
{
    if (!_pretty)
        return;
    _os << '\n';
    for (std::size_t i = 0; i < _stack.size(); ++i)
        _os << "  ";
}

void
JsonWriter::beforeValue()
{
    if (_stack.empty())
        return;
    Frame &top = _stack.back();
    if (top.isObject) {
        TF_ASSERT(_pendingName, "object value without a key");
        _pendingName = false;
        return;
    }
    if (top.children++ > 0)
        _os << ',';
    newline();
}

void
JsonWriter::name(const std::string &key)
{
    TF_ASSERT(!_stack.empty() && _stack.back().isObject,
              "name() outside an object");
    TF_ASSERT(!_pendingName, "two name() calls in a row");
    if (_stack.back().children++ > 0)
        _os << ',';
    newline();
    writeString(key);
    _os << (_pretty ? ": " : ":");
    _pendingName = true;
}

void
JsonWriter::beginObject()
{
    beforeValue();
    _os << '{';
    _stack.push_back(Frame{true});
}

void
JsonWriter::endObject()
{
    TF_ASSERT(!_stack.empty() && _stack.back().isObject,
              "endObject() outside an object");
    bool hadChildren = _stack.back().children > 0;
    _stack.pop_back();
    if (hadChildren)
        newline();
    _os << '}';
}

void
JsonWriter::beginArray()
{
    beforeValue();
    _os << '[';
    _stack.push_back(Frame{false});
}

void
JsonWriter::endArray()
{
    TF_ASSERT(!_stack.empty() && !_stack.back().isObject,
              "endArray() outside an array");
    bool hadChildren = _stack.back().children > 0;
    _stack.pop_back();
    if (hadChildren)
        newline();
    _os << ']';
}

void
JsonWriter::writeString(const std::string &s)
{
    _os << '"';
    for (char c : s) {
        switch (c) {
          case '"':
            _os << "\\\"";
            break;
          case '\\':
            _os << "\\\\";
            break;
          case '\n':
            _os << "\\n";
            break;
          case '\t':
            _os << "\\t";
            break;
          case '\r':
            _os << "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                _os << buf;
            } else {
                _os << c;
            }
        }
    }
    _os << '"';
}

std::string
JsonWriter::formatDouble(double v)
{
    if (!std::isfinite(v))
        return "null";
    // Integers up to 2^53 print without an exponent or fraction so
    // counters stay human-greppable.
    if (v == std::floor(v) && std::fabs(v) < 9.0e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.0f", v);
        return buf;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
JsonWriter::value(const std::string &s)
{
    beforeValue();
    writeString(s);
}

void
JsonWriter::value(const char *s)
{
    value(std::string(s));
}

void
JsonWriter::value(double v)
{
    beforeValue();
    _os << formatDouble(v);
}

void
JsonWriter::value(std::uint64_t v)
{
    beforeValue();
    _os << v;
}

void
JsonWriter::value(int v)
{
    beforeValue();
    _os << v;
}

void
JsonWriter::value(bool v)
{
    beforeValue();
    _os << (v ? "true" : "false");
}

void
JsonWriter::valueNull()
{
    beforeValue();
    _os << "null";
}

} // namespace tf::sim
