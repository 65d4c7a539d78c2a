#include "bench_json.h"

#include <cinttypes>
#include <cstdio>
#include <thread>

namespace pdatalog {
namespace bench {
namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  out += '"';
  return out;
}

}  // namespace

JsonRecord& JsonRecord::Set(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, Quote(value));
  return *this;
}
JsonRecord& JsonRecord::Set(const std::string& key, const char* value) {
  return Set(key, std::string(value));
}
JsonRecord& JsonRecord::Set(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  fields_.emplace_back(key, buf);
  return *this;
}
JsonRecord& JsonRecord::Set(const std::string& key, uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  fields_.emplace_back(key, buf);
  return *this;
}
JsonRecord& JsonRecord::Set(const std::string& key, int value) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%d", value);
  fields_.emplace_back(key, buf);
  return *this;
}
JsonRecord& JsonRecord::Set(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

std::string JsonRecord::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(fields_[i].first);
    out += ": ";
    out += fields_[i].second;
  }
  out += "}";
  return out;
}

JsonRecord& BenchJson::NewRecord() {
  records_.emplace_back();
  return records_.back();
}

std::string BenchJson::ToString() const {
  // Host facts first: a record read without them cannot be compared
  // with one from another machine or build.
  std::string out = "{\n  \"bench\": " + Quote(name_) +
                    ",\n  \"host_cores\": " +
                    std::to_string(std::thread::hardware_concurrency()) +
                    ",\n  \"build_type\": " + Quote(PDATALOG_BUILD_TYPE) +
                    ",\n  \"records\": [";
  for (size_t i = 0; i < records_.size(); ++i) {
    out += i > 0 ? ",\n    " : "\n    ";
    out += records_[i].ToString();
  }
  out += "\n  ]\n}\n";
  return out;
}

bool BenchJson::WriteFile(const std::string& dir) const {
  std::string path = dir + "/BENCH_" + name_ + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_json: cannot open %s\n", path.c_str());
    return false;
  }
  std::string body = ToString();
  bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::fclose(f);
  if (ok) std::printf("wrote %s\n", path.c_str());
  return ok;
}

}  // namespace bench
}  // namespace pdatalog
