// Canonical binary (de)serialization for protocol messages.
//
// All multi-byte integers are little-endian and fixed-width; variable-length
// byte strings are length-prefixed with a u32. The encoding must be canonical
// (one valid encoding per value) because signatures and the self-certifying
// group id are computed over these bytes.
//
// Reader is defensive: all accessors return false on truncation/overflow so
// protocol code can reject malformed messages from dishonest nodes instead of
// crashing.
#ifndef DISSENT_UTIL_SERIALIZE_H_
#define DISSENT_UTIL_SERIALIZE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/util/bytes.h"

namespace dissent {

class Writer {
 public:
  void U8(uint8_t v);
  void U16(uint16_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  void Bool(bool v);
  // Length-prefixed byte string.
  void Blob(const Bytes& b);
  // Raw bytes, no length prefix (caller knows the framing).
  void Raw(const Bytes& b);
  void Str(const std::string& s);

  const Bytes& data() const { return buf_; }
  Bytes Take() { return std::move(buf_); }

 private:
  Bytes buf_;
};

class Reader {
 public:
  explicit Reader(const Bytes& buf) : buf_(buf) {}

  bool U8(uint8_t* v);
  bool U16(uint16_t* v);
  bool U32(uint32_t* v);
  bool U64(uint64_t* v);
  bool Bool(bool* v);
  bool Blob(Bytes* b);
  bool Raw(size_t n, Bytes* b);
  bool Str(std::string* s);

  // True when every byte has been consumed; protocol decoders require this
  // so trailing garbage cannot be smuggled under a valid signature.
  bool AtEnd() const { return pos_ == buf_.size(); }
  size_t remaining() const { return buf_.size() - pos_; }

 private:
  bool Take(size_t n, const uint8_t** p);

  const Bytes& buf_;
  size_t pos_ = 0;
};

// Symmetric snapshot codec over Writer/Reader. A snapshotted struct names
// each field once, in a `template <class Ar> bool Fields(Ar& ar)` chaining
// the calls below; SaveArchive runs that list to write the bytes and
// LoadArchive runs it to read them back, so the directions cannot drift.
// Each call below holds both of its directions, side by side.
//
// Saving always succeeds (Fields runs on a const_cast object, which the
// archive only reads). Loading returns false on malformed input and writes
// each field as it goes, so a rejected load leaves the struct partly
// overwritten. Count caps, Expect comparisons and Check conditions bite on
// load only. Scalars take the width the call names, whatever the field's
// own integer or enum type.
template <bool kLoading>
class Archive {
 public:
  Archive() = default;                              // saving
  explicit Archive(const Bytes& buf) : io_(buf) {}  // loading

  template <class T>
  bool U8(T& v) { return Scalar(&Writer::U8, &Reader::U8, v); }
  template <class T>
  bool U32(T& v) { return Scalar(&Writer::U32, &Reader::U32, v); }
  template <class T>
  bool U64(T& v) { return Scalar(&Writer::U64, &Reader::U64, v); }
  bool Bool(bool& v) { return Scalar(&Writer::Bool, &Reader::Bool, v); }
  bool Bool(std::vector<bool>::reference v) {
    bool b = v;
    return Bool(b) && Derived(v, b);
  }
  bool Blob(Bytes& v) { return Scalar(&Writer::Blob, &Reader::Blob, v); }
  // A nested struct as a blob of its own encoding: save() returns the
  // bytes, load(bytes) consumes them.
  template <class Save, class Load>
  bool Nested(Save save, Load load) {
    Bytes b;
    if constexpr (!kLoading) {
      b = save();
    }
    return Blob(b) && (!kLoading || load(b));
  }
  // A value the reader already knows: written, and compared on load.
  bool Expect(uint32_t v) {
    uint32_t x = v;
    return U32(x) && x == v;
  }
  bool Expect(const std::string& v) {
    std::string x = v;
    return Scalar(&Writer::Str, &Reader::Str, x) && x == v;
  }
  // A condition on the fields just loaded.
  bool Check(bool ok) { return !kLoading || ok; }
  // A field the bytes do not hold: a load sets it to `value`.
  template <class T, class V>
  bool Derived(T&& field, const V& value) {
    if constexpr (kLoading) {
      field = value;
    }
    return true;
  }
  // Presence flag, then the value.
  template <class T, class F>
  bool Opt(std::optional<T>& v, F f) {
    bool present = v.has_value();
    if (!Bool(present)) {
      return false;
    }
    if constexpr (kLoading) {
      v = present ? std::make_optional<T>() : std::nullopt;
    }
    return !present || f(*v);
  }
  // Each element of a container the reader sizes itself, with no count;
  // given n, a load first resets the container to n default elements.
  template <class C, class F>
  bool Each(C& c, F f) {
    for (auto&& e : c) {
      if (!f(e)) {
        return false;
      }
    }
    return true;
  }
  template <class C, class F>
  bool Each(C& c, size_t n, F f) {
    if constexpr (kLoading) {
      c.assign(n, typename C::value_type{});
    }
    return Each(c, f);
  }
  // u32 count, then each element (a map's as a key-value pair). A load
  // rejects a count above cap, and a duplicate in a set or map.
  template <class C, class F>
  bool Seq(C& c, size_t cap, F f) {
    uint32_t n = static_cast<uint32_t>(c.size());
    if (!U32(n) || !Check(n <= cap)) {
      return false;
    }
    if constexpr (kLoading) {
      c.clear();
      for (uint32_t i = 0; i < n; ++i) {
        typename Element<typename C::value_type>::type e{};
        if (!f(e)) {
          return false;
        }
        c.insert(c.end(), std::move(e));
        if (c.size() != i + 1u) {
          return false;
        }
      }
    } else {
      for (const auto& e : c) {
        f(const_cast<typename C::value_type&>(e));
      }
    }
    return true;
  }

  Bytes Take() { return io_.Take(); }
  bool AtEnd() const { return io_.AtEnd(); }

 private:
  // A loaded map entry's key is assignable until the entry is inserted.
  template <class T>
  struct Element {
    using type = T;
  };
  template <class K, class V>
  struct Element<std::pair<const K, V>> {
    using type = std::pair<K, V>;
  };

  template <class W, class R, class T>
  bool Scalar(void (Writer::*put)(W), bool (Reader::*get)(R*), T& v) {
    if constexpr (kLoading) {
      R x{};
      if (!(io_.*get)(&x)) {
        return false;
      }
      v = static_cast<T>(std::move(x));
    } else {
      (io_.*put)(static_cast<W>(v));
    }
    return true;
  }

  std::conditional_t<kLoading, Reader, Writer> io_;
};

using SaveArchive = Archive<false>;
using LoadArchive = Archive<true>;

}  // namespace dissent

#endif  // DISSENT_UTIL_SERIALIZE_H_
