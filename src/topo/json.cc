#include "topo/json.hh"

#include <cctype>
#include <cstdlib>

namespace tf::topo::json {

std::string
Position::str() const
{
    std::string out = origin ? *origin : std::string();
    if (line == 0)
        return out;
    return out + ":" + std::to_string(line) + ":" + std::to_string(col);
}

const Value *
Value::find(const std::string &key) const
{
    if (!isObject())
        return nullptr;
    for (const auto &kv : *_members)
        if (kv.first == key)
            return &kv.second;
    return nullptr;
}

Value
Value::makeNull(Position where)
{
    Value v;
    v._type = Type::Null;
    v._where = std::move(where);
    return v;
}

Value
Value::makeBool(bool b, Position where)
{
    Value v;
    v._type = Type::Bool;
    v._bool = b;
    v._where = std::move(where);
    return v;
}

Value
Value::makeNumber(double n, Position where)
{
    Value v;
    v._type = Type::Number;
    v._number = n;
    v._where = std::move(where);
    return v;
}

Value
Value::makeString(std::string s, Position where)
{
    Value v;
    v._type = Type::String;
    v._string = std::move(s);
    v._where = std::move(where);
    return v;
}

Value
Value::makeArray(std::vector<Value> items, Position where)
{
    Value v;
    v._type = Type::Array;
    v._items = std::make_shared<std::vector<Value>>(std::move(items));
    v._where = std::move(where);
    return v;
}

Value
Value::makeObject(Members members, Position where)
{
    Value v;
    v._type = Type::Object;
    v._members = std::make_shared<Members>(std::move(members));
    v._where = std::move(where);
    return v;
}

namespace {

class Parser
{
  public:
    Parser(const std::string &text, const std::string &origin)
        : _text(text), _origin(std::make_shared<const std::string>(origin))
    {
    }

    Value document()
    {
        skipWs();
        Value v = value();
        skipWs();
        if (_pos != _text.size())
            fail("trailing content after JSON document");
        return v;
    }

  private:
    const std::string &_text;
    const std::shared_ptr<const std::string> _origin;
    std::size_t _pos = 0;
    std::uint32_t _line = 1;
    std::uint32_t _col = 1;

    [[noreturn]] void fail(const std::string &msg) const
    {
        throw SpecError(here().str() + ": " + msg);
    }

    /** The position of the next character. */
    Position here() const { return Position{_origin, _line, _col}; }

    bool atEnd() const { return _pos >= _text.size(); }

    char peek() const
    {
        if (atEnd())
            fail("unexpected end of input");
        return _text[_pos];
    }

    char advance()
    {
        char c = peek();
        ++_pos;
        if (c == '\n') {
            ++_line;
            _col = 1;
        } else {
            ++_col;
        }
        return c;
    }

    void expect(char c)
    {
        if (atEnd() || peek() != c)
            fail(std::string("expected '") + c + "'");
        advance();
    }

    void skipWs()
    {
        while (!atEnd()) {
            char c = _text[_pos];
            if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
                advance();
            } else if (c == '/' && _pos + 1 < _text.size() &&
                       _text[_pos + 1] == '/') {
                // Line comments: configs deserve annotations.
                while (!atEnd() && _text[_pos] != '\n')
                    advance();
            } else {
                break;
            }
        }
    }

    Value value()
    {
        switch (peek()) {
          case '{':
            return object();
          case '[':
            return array();
          case '"': {
            // string() reads past the closing quote: take it first.
            Position at = here();
            return Value::makeString(string(), std::move(at));
          }
          case 't':
          case 'f':
            return boolean();
          case 'n':
            return null();
          default:
            return number();
        }
    }

    Value object()
    {
        Position loc = here();
        expect('{');
        Members members;
        skipWs();
        if (!atEnd() && peek() == '}') {
            advance();
            return Value::makeObject(std::move(members), std::move(loc));
        }
        while (true) {
            skipWs();
            if (peek() != '"')
                fail("expected object key string");
            std::string key = string();
            for (const auto &kv : members)
                if (kv.first == key)
                    fail("duplicate key \"" + key + "\"");
            skipWs();
            expect(':');
            skipWs();
            members.emplace_back(std::move(key), value());
            skipWs();
            if (peek() == ',') {
                advance();
                continue;
            }
            expect('}');
            return Value::makeObject(std::move(members), std::move(loc));
        }
    }

    Value array()
    {
        Position loc = here();
        expect('[');
        std::vector<Value> items;
        skipWs();
        if (!atEnd() && peek() == ']') {
            advance();
            return Value::makeArray(std::move(items), std::move(loc));
        }
        while (true) {
            skipWs();
            items.push_back(value());
            skipWs();
            if (peek() == ',') {
                advance();
                continue;
            }
            expect(']');
            return Value::makeArray(std::move(items), std::move(loc));
        }
    }

    std::string string()
    {
        expect('"');
        std::string out;
        while (true) {
            char c = advance();
            if (c == '"')
                return out;
            if (c == '\n')
                fail("unterminated string");
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            char esc = advance();
            switch (esc) {
              case '"':  out.push_back('"');  break;
              case '\\': out.push_back('\\'); break;
              case '/':  out.push_back('/');  break;
              case 'n':  out.push_back('\n'); break;
              case 't':  out.push_back('\t'); break;
              case 'r':  out.push_back('\r'); break;
              case 'b':  out.push_back('\b'); break;
              case 'f':  out.push_back('\f'); break;
              default:
                fail(std::string("unsupported escape '\\") + esc +
                     "'");
            }
        }
    }

    Value boolean()
    {
        Position loc = here();
        if (_text.compare(_pos, 4, "true") == 0) {
            for (int i = 0; i < 4; ++i)
                advance();
            return Value::makeBool(true, std::move(loc));
        }
        if (_text.compare(_pos, 5, "false") == 0) {
            for (int i = 0; i < 5; ++i)
                advance();
            return Value::makeBool(false, std::move(loc));
        }
        fail("expected 'true' or 'false'");
    }

    Value null()
    {
        Position loc = here();
        if (_text.compare(_pos, 4, "null") != 0)
            fail("expected 'null'");
        for (int i = 0; i < 4; ++i)
            advance();
        return Value::makeNull(std::move(loc));
    }

    Value number()
    {
        Position loc = here();
        std::size_t start = _pos;
        if (!atEnd() && (peek() == '-' || peek() == '+'))
            advance();
        bool sawDigit = false;
        while (!atEnd()) {
            char c = _text[_pos];
            if (std::isdigit(static_cast<unsigned char>(c))) {
                sawDigit = true;
                advance();
            } else if (c == '.' || c == 'e' || c == 'E' || c == '-' ||
                       c == '+') {
                advance();
            } else {
                break;
            }
        }
        if (!sawDigit)
            fail("expected a value");
        std::string lexeme = _text.substr(start, _pos - start);
        char *end = nullptr;
        double n = std::strtod(lexeme.c_str(), &end);
        if (end == nullptr || *end != '\0')
            fail("malformed number \"" + lexeme + "\"");
        return Value::makeNumber(n, std::move(loc));
    }
};

} // namespace

Value
parse(const std::string &text, const std::string &origin)
{
    return Parser(text, origin).document();
}

} // namespace tf::topo::json
