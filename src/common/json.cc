#include "common/json.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/log.hh"
#include "common/parse_uint.hh"

namespace prefsim
{

JsonWriter::JsonWriter(std::ostream &os)
    : os_(os)
{}

JsonWriter::~JsonWriter()
{
    try {
        flush();
    } catch (...) {
        // Only a stream with exceptions enabled throws, and it has set
        // its own failure state first: the caller sees that.
    }
}

void
JsonWriter::flush()
{
    if (buf_.empty())
        return;
    os_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    buf_.clear();
}

void
JsonWriter::endToken()
{
    if (state_.empty() || buf_.size() >= kFlushBytes)
        flush();
}

void
JsonWriter::separate()
{
    if (pending_key_) {
        pending_key_ = false;
        return; // The key already emitted its separator.
    }
    if (!has_.empty() && has_.back() == '1')
        buf_ += ',';
    if (!has_.empty())
        has_.back() = '1';
}

JsonWriter &
JsonWriter::beginObject()
{
    separate();
    buf_ += '{';
    state_.push_back('o');
    has_.push_back('0');
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    prefsim_assert(!state_.empty() && state_.back() == 'o',
                   "endObject outside object");
    buf_ += '}';
    state_.pop_back();
    has_.pop_back();
    endToken();
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    separate();
    buf_ += '[';
    state_.push_back('a');
    has_.push_back('0');
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    prefsim_assert(!state_.empty() && state_.back() == 'a',
                   "endArray outside array");
    buf_ += ']';
    state_.pop_back();
    has_.pop_back();
    endToken();
    return *this;
}

namespace
{

/** Whether JSON requires @p ch to be escaped inside a string. */
bool
needsEscape(char ch)
{
    return ch == '"' || ch == '\\' || static_cast<unsigned char>(ch) < 0x20;
}

} // namespace

void
JsonWriter::writeString(std::string_view s)
{
    if (std::any_of(s.begin(), s.end(), needsEscape)) {
        buf_ += escape(s);
        return;
    }
    buf_ += '"';
    buf_ += s;
    buf_ += '"';
}

JsonWriter &
JsonWriter::key(std::string_view name)
{
    prefsim_assert(!state_.empty() && state_.back() == 'o',
                   "key outside object");
    separate();
    writeString(name);
    buf_ += ':';
    pending_key_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view v)
{
    separate();
    writeString(v);
    endToken();
    return *this;
}

JsonWriter &
JsonWriter::value(double v)
{
    separate();
    char buf[32];
    const int n = std::snprintf(buf, sizeof(buf), "%.6g", v);
    buf_.append(buf, static_cast<std::size_t>(n));
    endToken();
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    separate();
    char buf[20]; // UINT64_MAX has 20 digits.
    const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
    buf_.append(buf, static_cast<std::size_t>(r.ptr - buf));
    endToken();
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    separate();
    buf_ += v ? "true" : "false";
    endToken();
    return *this;
}

std::string
JsonWriter::escape(std::string_view s)
{
    std::string out = "\"";
    for (char ch : s) {
        switch (ch) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(ch));
                out += buf;
            } else {
                out += ch;
            }
        }
    }
    out += '"';
    return out;
}

bool
JsonValue::asBool() const
{
    prefsim_assert(kind_ == Kind::Bool, "JSON value is not a bool");
    return bool_;
}

double
JsonValue::asDouble() const
{
    prefsim_assert(kind_ == Kind::Number, "JSON value is not a number");
    return std::strtod(scalar_.c_str(), nullptr);
}

std::uint64_t
JsonValue::asU64() const
{
    prefsim_assert(kind_ == Kind::Number, "JSON value is not a number");
    return std::strtoull(scalar_.c_str(), nullptr, 10);
}

const std::string &
JsonValue::asString() const
{
    prefsim_assert(kind_ == Kind::String, "JSON value is not a string");
    return scalar_;
}

const std::vector<JsonValue> &
JsonValue::array() const
{
    prefsim_assert(kind_ == Kind::Array, "JSON value is not an array");
    return elems_;
}

const std::vector<JsonValue::Member> &
JsonValue::members() const
{
    prefsim_assert(kind_ == Kind::Object, "JSON value is not an object");
    return members_;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    for (const auto &[name, value] : members_) {
        if (name == key)
            return &value;
    }
    return nullptr;
}

/** Recursive-descent parser over an in-memory document. */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text)
        : text_(text)
    {}

    std::optional<JsonValue>
    parse()
    {
        JsonValue v;
        if (!parseValue(v))
            return std::nullopt;
        skipSpace();
        if (pos_ != text_.size()) // Trailing garbage.
            return std::nullopt;
        return v;
    }

  private:
    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::string(word).size();
        if (text_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    bool
    parseValue(JsonValue &out)
    {
        skipSpace();
        if (pos_ >= text_.size())
            return false;
        switch (text_[pos_]) {
          case '{':
          case '[': {
            if (depth_ == kMaxJsonDepth)
                return false;
            ++depth_;
            const bool ok = text_[pos_] == '{' ? parseObject(out)
                                               : parseArray(out);
            --depth_;
            return ok;
          }
          case '"':
            out.kind_ = JsonValue::Kind::String;
            return parseString(out.scalar_);
          case 't':
            out.kind_ = JsonValue::Kind::Bool;
            out.bool_ = true;
            return literal("true");
          case 'f':
            out.kind_ = JsonValue::Kind::Bool;
            out.bool_ = false;
            return literal("false");
          case 'n':
            out.kind_ = JsonValue::Kind::Null;
            return literal("null");
          default:
            return parseNumber(out);
        }
    }

    bool
    parseObject(JsonValue &out)
    {
        out.kind_ = JsonValue::Kind::Object;
        ++pos_; // '{'
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipSpace();
            std::string key;
            if (pos_ >= text_.size() || text_[pos_] != '"' ||
                !parseString(key))
                return false;
            skipSpace();
            if (pos_ >= text_.size() || text_[pos_++] != ':')
                return false;
            JsonValue value;
            if (!parseValue(value))
                return false;
            out.members_.emplace_back(std::move(key), std::move(value));
            skipSpace();
            if (pos_ >= text_.size())
                return false;
            const char c = text_[pos_++];
            if (c == '}')
                return true;
            if (c != ',')
                return false;
        }
    }

    bool
    parseArray(JsonValue &out)
    {
        out.kind_ = JsonValue::Kind::Array;
        ++pos_; // '['
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            JsonValue elem;
            if (!parseValue(elem))
                return false;
            out.elems_.push_back(std::move(elem));
            skipSpace();
            if (pos_ >= text_.size())
                return false;
            const char c = text_[pos_++];
            if (c == ']')
                return true;
            if (c != ',')
                return false;
        }
    }

    bool
    parseString(std::string &out)
    {
        ++pos_; // opening quote
        out.clear();
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                return false;
            const char esc = text_[pos_++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                  if (pos_ + 4 > text_.size())
                      return false;
                  unsigned code = 0;
                  for (int i = 0; i < 4; ++i) {
                      const char h = text_[pos_++];
                      code <<= 4;
                      if (h >= '0' && h <= '9')
                          code |= static_cast<unsigned>(h - '0');
                      else if (h >= 'a' && h <= 'f')
                          code |= static_cast<unsigned>(h - 'a' + 10);
                      else if (h >= 'A' && h <= 'F')
                          code |= static_cast<unsigned>(h - 'A' + 10);
                      else
                          return false;
                  }
                  // The writer only escapes control characters; decode
                  // BMP code points as UTF-8.
                  if (code < 0x80) {
                      out += static_cast<char>(code);
                  } else if (code < 0x800) {
                      out += static_cast<char>(0xc0 | (code >> 6));
                      out += static_cast<char>(0x80 | (code & 0x3f));
                  } else {
                      out += static_cast<char>(0xe0 | (code >> 12));
                      out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
                      out += static_cast<char>(0x80 | (code & 0x3f));
                  }
                  break;
              }
              default:
                return false;
            }
        }
        return false; // Unterminated string.
    }

    bool
    parseNumber(JsonValue &out)
    {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        auto digits = [&] {
            const std::size_t before = pos_;
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_])))
                ++pos_;
            return pos_ > before;
        };
        if (!digits())
            return false;
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            if (!digits())
                return false;
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (!digits())
                return false;
        }
        out.kind_ = JsonValue::Kind::Number;
        out.scalar_ = text_.substr(start, pos_ - start);
        return true;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
    unsigned depth_ = 0; ///< Open arrays/objects (see kMaxJsonDepth).
};

std::optional<JsonValue>
parseJson(const std::string &text)
{
    return JsonParser(text).parse();
}

std::optional<std::string>
readTextFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

JsonValue
loadJsonDocument(const std::string &path, const std::string &schema)
{
    const std::optional<std::string> text = readTextFile(path);
    if (!text)
        throw std::runtime_error("cannot open " + path);
    std::optional<JsonValue> doc = parseJson(*text);
    if (!doc)
        throw std::runtime_error(path + " is not strict JSON");
    const JsonValue *tag = doc->find("schema");
    if (!tag || !tag->isString() || tag->asString() != schema)
        throw std::runtime_error(path + " is not a " + schema +
                                 " document");
    return std::move(*doc);
}

JsonField::JsonField(const JsonValue &value, std::string path)
    : value_(&value), path_(std::move(path))
{}

void
JsonField::fail(const std::string &what) const
{
    throw JsonError((path_.empty() ? "document" : path_) + ": " + what);
}

const JsonValue &
JsonField::expect(JsonValue::Kind kind, const char *what) const
{
    if (value_->kind() != kind)
        fail(std::string("expected ") + what);
    return *value_;
}

JsonField
JsonField::operator[](const std::string &key) const
{
    std::optional<JsonField> member = find(key);
    if (!member)
        fail("missing \"" + key + "\"");
    return std::move(*member);
}

std::optional<JsonField>
JsonField::find(const std::string &key) const
{
    expect(JsonValue::Kind::Object, "an object");
    const JsonValue *member = value_->find(key);
    if (!member)
        return std::nullopt;
    return JsonField(*member, path_.empty() ? key : path_ + "." + key);
}

std::vector<std::pair<std::string, JsonField>>
JsonField::members() const
{
    std::vector<std::pair<std::string, JsonField>> out;
    for (const auto &[key, member] :
         expect(JsonValue::Kind::Object, "an object").members_) {
        out.emplace_back(key, JsonField(member, path_.empty()
                                                    ? key
                                                    : path_ + "." + key));
    }
    return out;
}

std::vector<JsonField>
JsonField::items() const
{
    const auto &elems = expect(JsonValue::Kind::Array, "an array").elems_;
    std::vector<JsonField> out;
    out.reserve(elems.size());
    for (std::size_t i = 0; i < elems.size(); ++i)
        out.emplace_back(elems[i], path_ + "[" + std::to_string(i) + "]");
    return out;
}

std::uint64_t
JsonField::u64(std::uint64_t max) const
{
    const std::string &token =
        expect(JsonValue::Kind::Number, "an unsigned integer").scalar_;
    const std::optional<std::uint64_t> v = parseUint(token.c_str(), max);
    if (!v)
        fail("expected an unsigned integer" +
             (max == std::numeric_limits<std::uint64_t>::max()
                  ? std::string()
                  : " in 0.." + std::to_string(max)) +
             ", got " + token);
    return *v;
}

double
JsonField::number() const
{
    return expect(JsonValue::Kind::Number, "a number").asDouble();
}

const std::string &
JsonField::str() const
{
    return expect(JsonValue::Kind::String, "a string").scalar_;
}

bool
JsonField::boolean() const
{
    return expect(JsonValue::Kind::Bool, "a bool").bool_;
}

} // namespace prefsim
