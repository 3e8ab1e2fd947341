#include "exec/result_cache.hpp"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>
#include <type_traits>

#include "common/hex.hpp"
#include "common/version.hpp"
#include "core/metric_fields.hpp"

namespace arinoc::exec {

namespace {

constexpr const char kFormatTag[] = "arinoc-cache-v2";

// Strict value parsers for cache records: the whole token or nothing.
bool parse_field(std::string_view s, std::uint64_t& out) {
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, out);  // No sign.
  return ec == std::errc{} && ptr == end;
}

bool parse_field(std::string_view s, double& out) {
  if (s.empty() || std::isspace(static_cast<unsigned char>(s[0]))) {
    return false;
  }
  const std::string token(s);
  char* end = nullptr;
  out = std::strtod(token.c_str(), &end);  // Accepts hexfloat.
  return end == token.c_str() + token.size();
}

bool parse_field(std::string_view s, bool& out) {
  if (s != "0" && s != "1") return false;
  out = s == "1";
  return true;
}

bool parse_field(std::string_view s, std::string& out) {
  out = s;
  return true;
}

}  // namespace

std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string fabric_cache_tag(const Config& cfg) {
  if (cfg.fabric != "file") return cfg.fabric;
  std::ifstream in(cfg.topology_file, std::ios::binary);
  if (!in) return "file:unreadable";
  std::ostringstream contents;
  contents << in.rdbuf();
  return "file:" + hex_u64(fnv1a64(contents.str()));
}

std::string cache_key_string(const Config& cfg, std::string_view scheme,
                             std::string_view benchmark,
                             std::string_view fabric) {
  std::ostringstream os;
  os << "version=" << kArinocVersion << '\n'
     << "scheme=" << scheme << '\n'
     << "benchmark=" << benchmark << '\n'
     << "fabric=" << fabric << '\n'
     << cfg.canonical_string();
  return os.str();
}

std::string serialize_metrics(const Metrics& m) {
  std::ostringstream os;
  for_each_metric(m, [&os](std::string_view name, const auto& value,
                           unsigned flags) {
    if (!(flags & kMetricStored)) return;
    using T = std::remove_cvref_t<decltype(value)>;
    os << name << ' ';
    if constexpr (std::is_same_v<T, double>) {
      os << hex_double(value);
    } else if constexpr (std::is_same_v<T, std::string>) {
      // Verbatim: a value runs to the end of its line. A label holding a
      // newline would make the entry unreadable, a miss.
      os << value;
    } else {
      os << static_cast<std::uint64_t>(value);  // A count, or a bool as 0/1.
    }
    os << '\n';
  });
  return os.str();
}

std::optional<Metrics> deserialize_metrics(const std::string& text) {
  // A record lists every stored row once, in table order, as one
  // "<name> <value>\n" line: a missing, repeated, reordered or unknown
  // field (a stale layout or a corrupt entry) fails the name match.
  Metrics m;
  std::string_view rest = text;
  bool ok = true;
  for_each_metric(m, [&](std::string_view name, auto&& field, unsigned flags) {
    if (!ok || !(flags & kMetricStored)) return;
    const std::size_t eol = rest.find('\n');
    ok = eol != std::string_view::npos && eol > name.size() &&
         rest.starts_with(name) && rest[name.size()] == ' ' &&
         parse_field(rest.substr(name.size() + 1, eol - name.size() - 1),
                     field);
    if (ok) rest.remove_prefix(eol + 1);
  });
  if (!ok || !rest.empty()) return std::nullopt;
  return m;
}

std::string ResultCache::default_dir() {
  if (const char* dir = std::getenv("ARINOC_CACHE_DIR")) return dir;
  return ".arinoc-cache";
}

std::string ResultCache::entry_path(const std::string& key_material) const {
  return dir_ + "/" + hex_u64(fnv1a64(key_material)) + ".cell";
}

std::optional<Metrics> ResultCache::load(
    const std::string& key_material) const {
  if (!enabled()) return std::nullopt;
  std::ifstream in(entry_path(key_material), std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  // Layout: tag line, "<key bytes> <metrics bytes>" counts line, the key
  // material verbatim, then the metrics payload.
  std::istringstream header(text);
  std::string tag;
  std::size_t key_len = 0, val_len = 0;
  if (!std::getline(header, tag) || tag != kFormatTag) return std::nullopt;
  if (!(header >> key_len >> val_len)) return std::nullopt;
  header.ignore(1);  // The newline after the counts.
  const auto body = static_cast<std::size_t>(header.tellg());
  if (body == static_cast<std::size_t>(-1) ||
      text.size() != body + key_len + val_len) {
    return std::nullopt;
  }
  if (text.compare(body, key_len, key_material) != 0) {
    return std::nullopt;  // Hash collision: treat as a miss.
  }
  return deserialize_metrics(text.substr(body + key_len, val_len));
}

void ResultCache::store(const std::string& key_material,
                        const Metrics& m) const {
  if (!enabled()) return;
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) return;

  const std::string payload = serialize_metrics(m);
  std::ostringstream os;
  os << kFormatTag << '\n'
     << key_material.size() << ' ' << payload.size() << '\n'
     << key_material << payload;

  const std::string path = entry_path(key_material);
  // Unique temp name per writer thread so concurrent stores never interleave.
  const std::string tmp =
      path + ".tmp" +
      hex_u64(std::hash<std::thread::id>{}(std::this_thread::get_id()));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return;
    out << os.str();
    if (!out) {
      out.close();
      std::filesystem::remove(tmp, ec);
      return;
    }
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) std::filesystem::remove(tmp, ec);
}

}  // namespace arinoc::exec
