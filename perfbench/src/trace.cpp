#include "trace.hpp"

#include <algorithm>
#include <fstream>

#include "util.hpp"
#include "wi/common/json.hpp"

namespace perfbench {
namespace {

struct ThreadState {
  const Tracer* owner = nullptr;
  int thread = -1;
  std::vector<int> open;
};

thread_local ThreadState t_state;

}  // namespace

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->close(index_);
}

Tracer::Scope Tracer::span(std::string name, int op) {
  if (!enabled_) return Scope(nullptr, -1);
  const double now = wall_s();
  std::lock_guard lock(mutex_);
  if (epoch_s_ < 0.0) epoch_s_ = now;
  if (t_state.owner != this) t_state = ThreadState{this, threads_++, {}};
  Span span;
  span.name = std::move(name);
  span.start_us = (now - epoch_s_) * 1e6;
  span.end_us = -1.0;
  span.parent = t_state.open.empty() ? -1 : t_state.open.back();
  span.op = op >= 0 || span.parent < 0 ? op : spans_[span.parent].op;
  span.thread = t_state.thread;
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  t_state.open.push_back(index);
  return Scope(this, index);
}

void Tracer::close(int index) {
  const double now = wall_s();
  std::lock_guard lock(mutex_);
  spans_[index].end_us = (now - epoch_s_) * 1e6;
  if (!t_state.open.empty() && t_state.open.back() == index) {
    t_state.open.pop_back();
  }
}

std::vector<double> Tracer::child_ms() const {
  std::vector<double> children(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0 && span.end_us >= 0.0) {
      children[span.parent] += (span.end_us - span.start_us) * 1e-3;
    }
  }
  return children;
}

std::map<std::string, SpanTotals> Tracer::totals() const {
  std::lock_guard lock(mutex_);
  const std::vector<double> children = child_ms();
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_us < 0.0) continue;
    const double duration = (span.end_us - span.start_us) * 1e-3;
    SpanTotals& t = out[span.name];
    ++t.count;
    t.total_ms += duration;
    t.self_ms += duration - children[i];
  }
  return out;
}

double Tracer::min_child_coverage(const std::string& name) const {
  std::lock_guard lock(mutex_);
  const std::vector<double> children = child_ms();
  double coverage = 1.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.name != name || span.end_us <= span.start_us) continue;
    coverage = std::min(coverage,
                        children[i] / ((span.end_us - span.start_us) * 1e-3));
  }
  return coverage;
}

void Tracer::write(const std::filesystem::path& stem) const {
  std::lock_guard lock(mutex_);
  const std::vector<double> children = child_ms();
  wi::Json events = wi::Json::array();
  std::ofstream csv(stem.string() + ".csv");
  csv << "index,name,op,parent,thread,start_us,end_us,dur_us,self_us\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_us < 0.0) continue;
    const double duration_us = span.end_us - span.start_us;
    wi::Json args = wi::Json::object();
    args.set("op", wi::Json(span.op));
    args.set("parent", wi::Json(span.parent));
    args.set("self_us", wi::Json(duration_us - children[i] * 1e3));
    wi::Json event = wi::Json::object();
    event.set("name", wi::Json(span.name));
    event.set("cat", wi::Json(span.name.substr(0, span.name.find('.'))));
    event.set("ph", wi::Json("X"));
    event.set("ts", wi::Json(span.start_us));
    event.set("dur", wi::Json(duration_us));
    event.set("pid", wi::Json(1));
    event.set("tid", wi::Json(span.thread + 1));
    event.set("args", std::move(args));
    events.push_back(std::move(event));
    csv << i << ',' << span.name << ',' << span.op << ',' << span.parent
        << ',' << span.thread << ',' << span.start_us << ',' << span.end_us
        << ',' << duration_us << ',' << duration_us - children[i] * 1e3
        << '\n';
  }
  wi::Json root = wi::Json::object();
  root.set("traceEvents", std::move(events));
  root.set("displayTimeUnit", wi::Json("ms"));
  std::ofstream(stem.string() + ".json") << root.dump() << '\n';
}

}  // namespace perfbench
