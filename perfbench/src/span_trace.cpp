#include "span_trace.hpp"

#include <cstdio>
#include <memory>

namespace perfbench {

SelfTimes self_times(const std::vector<Span>& spans) {
  SelfTimes out;
  for (const Span& s : spans) {
    const std::int64_t d = s.end_ns - s.start_ns;
    out.self_ns[static_cast<std::size_t>(s.name)] += d;
    ++out.calls[static_cast<std::size_t>(s.name)];
    if (s.parent != 0) {
      out.self_ns[static_cast<std::size_t>(spans[s.parent - 1].name)] -= d;
    }
  }
  return out;
}

std::vector<std::int64_t> durations(const std::vector<Span>& spans,
                                    SpanName name) {
  std::vector<std::int64_t> out;
  for (const Span& s : spans) {
    if (s.name == name) out.push_back(s.end_ns - s.start_ns);
  }
  return out;
}

bool write_csv(const std::vector<Span>& spans, const std::string& path) {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!f) return false;
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  std::fputs("id,name,parent,round,start_ns,end_ns\n", f.get());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f.get(), "%zu,%s,%u,%u,%lld,%lld\n", i + 1,
                 kSpanNames[static_cast<std::size_t>(s.name)], s.parent,
                 s.round, static_cast<long long>(s.start_ns - t0),
                 static_cast<long long>(s.end_ns - t0));
  }
  return std::ferror(f.get()) == 0;
}

}  // namespace perfbench
