/**
 * @file
 * Minimal JSON reader for topology files.
 *
 * A recursive-descent parser producing a small Value tree; object
 * members preserve file order so validation errors can point at the
 * first offending stanza. Errors throw topo::SpecError with the
 * originating file plus line:column, which is the contract the
 * topology layer exposes: a malformed config is a parse error at
 * load time, never a TF_ASSERT at runtime.
 *
 * Deliberately small: no escapes beyond the JSON standard set, no
 * \uXXXX surrogate pairs (configs are ASCII), numbers as double.
 */

#ifndef TF_TOPO_JSON_HH
#define TF_TOPO_JSON_HH

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace tf::topo {

/** Any topology-file problem: syntax, schema, or semantic. */
class SpecError : public std::runtime_error
{
  public:
    explicit SpecError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

namespace json {

class Value;

/** Object members in file order (duplicate keys rejected at parse). */
using Members = std::vector<std::pair<std::string, Value>>;

/**
 * Where a value starts in its source. Every value of one document
 * shares one origin string; the "file:line:col" text is built only
 * when an error message needs it.
 */
struct Position
{
    std::shared_ptr<const std::string> origin;
    std::uint32_t line = 0; ///< 1-based; 0 names the origin alone
    std::uint32_t col = 0;  ///< 1-based

    /** "file:line:col", or the origin alone when line is 0. */
    std::string str() const;
};

class Value
{
  public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    Value() = default;

    Type type() const { return _type; }
    bool isBool() const { return _type == Type::Bool; }
    bool isNumber() const { return _type == Type::Number; }
    bool isString() const { return _type == Type::String; }
    bool isArray() const { return _type == Type::Array; }
    bool isObject() const { return _type == Type::Object; }

    bool boolean() const { return _bool; }
    double number() const { return _number; }
    const std::string &str() const { return _string; }
    const std::vector<Value> &items() const { return *_items; }
    const Members &members() const { return *_members; }

    /** Member lookup; nullptr when absent (objects only). */
    const Value *find(const std::string &key) const;

    /** "file:line:col", for error messages about this value. */
    std::string where() const { return _where.str(); }

    static Value makeNull(Position where);
    static Value makeBool(bool b, Position where);
    static Value makeNumber(double n, Position where);
    static Value makeString(std::string s, Position where);
    static Value makeArray(std::vector<Value> items, Position where);
    static Value makeObject(Members members, Position where);

  private:
    Type _type = Type::Null;
    bool _bool = false;
    double _number = 0.0;
    std::string _string;
    std::shared_ptr<std::vector<Value>> _items;
    std::shared_ptr<Members> _members;
    Position _where;
};

/**
 * Parse @p text as one JSON document. @p origin names the source
 * (file path) for error messages. Throws SpecError on any syntax
 * problem, duplicate object key, or trailing garbage.
 */
Value parse(const std::string &text, const std::string &origin);

} // namespace json
} // namespace tf::topo

#endif // TF_TOPO_JSON_HH
