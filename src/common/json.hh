/**
 * @file
 * Minimal JSON writer and strict parser.
 *
 * Lives in the common layer so every library — including the
 * observability subsystem, which the simulation layers depend on — can
 * emit and validate JSON without pulling in the higher-level stats
 * code. The stats library re-exports these types (stats/json.hh) and
 * adds the SimStats serialisation on top.
 */

#ifndef PREFSIM_COMMON_JSON_HH
#define PREFSIM_COMMON_JSON_HH

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace prefsim
{

/**
 * Minimal JSON value writer (objects, arrays, numbers, strings).
 *
 * Emits compact, valid JSON; strings are escaped per RFC 8259. Tokens
 * are appended to a byte buffer the writer owns, not to the stream: a
 * string that needs no escaping is copied as is and integers are
 * formatted on the stack, so a token costs no stream call and, once the
 * buffer has grown, no allocation. The buffer goes to the stream in one
 * write when it passes kFlushBytes, when the outermost value closes (a
 * top-level container or scalar) and in the destructor. So once a
 * document is closed its bytes are in the stream, and a caller may
 * write to the stream directly (a trailing newline, say) while the
 * writer is still alive. Usage:
 *
 *   JsonWriter j(os);
 *   j.beginObject();
 *   j.key("cycles").value(123);
 *   j.key("procs").beginArray();
 *   ...
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os);
    /** Writes out what the buffer still holds (an unclosed document). */
    ~JsonWriter();

    JsonWriter(const JsonWriter &) = delete;
    JsonWriter &operator=(const JsonWriter &) = delete;

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();
    JsonWriter &key(std::string_view name);
    JsonWriter &value(std::string_view v);
    /** A literal would otherwise convert to bool, not string_view. */
    JsonWriter &value(const char *v) { return value(std::string_view(v)); }
    JsonWriter &value(double v);
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(bool v);

    /** Escape a string per JSON rules (quotes included). */
    static std::string escape(std::string_view s);

    /** Buffered bytes that trigger a write before the document ends. */
    static constexpr std::size_t kFlushBytes = 64 * 1024;

  private:
    /** Emit a comma if the current container already has an element. */
    void separate();
    /** Append @p s as a JSON string (escaped only when it must be). */
    void writeString(std::string_view s);
    /** After a token: write the buffer out if the outermost value has
     *  closed or the buffer is full. */
    void endToken();
    /** Hand the buffer to the stream and empty it. */
    void flush();

    std::ostream &os_;
    std::string buf_; ///< Tokens not yet written to os_.
    /** Per-depth flag: something was emitted at this level. */
    std::string state_; // 'o' object, 'a' array; paired with has_.
    std::string has_;
    bool pending_key_ = false;
};

/**
 * A parsed JSON value (RFC 8259 subset: no surrogate-pair decoding in
 * \u escapes beyond the BMP).
 *
 * Numbers keep their source text so 64-bit counters survive the
 * round-trip exactly — asU64() re-parses the raw token rather than
 * going through a double.
 */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };
    using Member = std::pair<std::string, JsonValue>;

    JsonValue() = default;

    Kind kind() const { return kind_; }
    bool isObject() const { return kind_ == Kind::Object; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }

    /** Value accessors; panic if the kind does not match. */
    bool asBool() const;
    double asDouble() const;
    std::uint64_t asU64() const;
    const std::string &asString() const;
    const std::vector<JsonValue> &array() const;
    const std::vector<Member> &members() const;

    /** Member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &key) const;

  private:
    friend class JsonParser;
    friend class JsonField;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    std::string scalar_; ///< Raw number token, or the decoded string.
    std::vector<JsonValue> elems_;
    std::vector<Member> members_;
};

/** Deepest array/object nesting parseJson accepts. The parser recurses
 *  once per level, so an unbounded `[[[...` document would overflow the
 *  stack; every prefsim document nests fewer than ten levels. */
inline constexpr unsigned kMaxJsonDepth = 256;

/**
 * Parse @p text as one JSON document. Strict: malformed syntax,
 * truncated input, trailing garbage or nesting deeper than
 * kMaxJsonDepth all yield nullopt (which is how the result cache
 * detects corrupt entries).
 */
std::optional<JsonValue> parseJson(const std::string &text);

/** The whole content of file @p path; nullopt when it cannot be read. */
std::optional<std::string> readTextFile(const std::string &path);

/** Parse file @p path as a document whose "schema" member is @p schema.
 *  @throws std::runtime_error when the file cannot be read, is not
 *  strict JSON or carries another schema. */
JsonValue loadJsonDocument(const std::string &path,
                           const std::string &schema);

/**
 * A document that parses but lacks a member its reader needs or holds
 * a value of the wrong kind. what() starts with the key path of the
 * offending value ("runs[2].lines[0].addr: ...").
 */
class JsonError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Checked access into a parsed document: a JsonValue plus its key path
 * from the root. Every accessor checks presence and kind and throws
 * JsonError naming the path, so a reader ends in a diagnostic instead
 * of an assertion on a wrong-kind value. Unsigned fields follow the
 * command-line rule (parseUint): a plain decimal token in range, so
 * "-1", "1.5" and "1e3" are rejected rather than wrapped or truncated.
 * A JsonField refers into its document, which must outlive it.
 */
class JsonField
{
  public:
    explicit JsonField(const JsonValue &value, std::string path = "");

    const JsonValue &value() const { return *value_; }
    const std::string &path() const { return path_; }

    /** Member @p key; throws unless this is an object holding it. */
    JsonField operator[](const std::string &key) const;
    /** Member @p key, or nullopt when absent (this must be an object). */
    std::optional<JsonField> find(const std::string &key) const;
    /** The members of an object, in document order. */
    std::vector<std::pair<std::string, JsonField>> members() const;
    /** The elements of an array. */
    std::vector<JsonField> items() const;

    std::uint64_t
    u64(std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) const;
    double number() const;
    const std::string &str() const;
    bool boolean() const;

    /** Throw JsonError for this value: "<path>: <what>". */
    [[noreturn]] void fail(const std::string &what) const;

  private:
    const JsonValue &expect(JsonValue::Kind kind, const char *what) const;

    const JsonValue *value_;
    std::string path_;
};

} // namespace prefsim

#endif // PREFSIM_COMMON_JSON_HH
