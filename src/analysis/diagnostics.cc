#include "src/analysis/diagnostics.h"

#include <sstream>

#include "src/base/json.h"

namespace artemis {

const char* DiagSeverityName(DiagSeverity severity) {
  switch (severity) {
    case DiagSeverity::kNote:
      return "note";
    case DiagSeverity::kWarning:
      return "warning";
    case DiagSeverity::kError:
      return "error";
  }
  return "?";
}

std::string RenderDiagnosticText(const Diagnostic& d, const std::string& file) {
  std::ostringstream out;
  out << file;
  if (d.span.valid()) {
    out << ":" << d.span.line << ":" << d.span.column;
  }
  out << ": " << DiagSeverityName(d.severity) << "[" << d.code << "]: machine '" << d.machine
      << "'";
  if (!d.property.empty()) {
    out << " (" << d.property << ")";
  }
  out << ": " << d.message << "\n";
  if (!d.note.empty()) {
    out << "    note: " << d.note << "\n";
  }
  return out.str();
}

std::string RenderDiagnosticsJson(const std::vector<Diagnostic>& diagnostics) {
  std::string out;
  JsonWriter w(&out);
  w.BeginArray(JsonLayout::kBlock);
  for (const Diagnostic& d : diagnostics) {
    w.BeginObject(JsonLayout::kBlock);
    w.Key("code").String(d.code);
    w.Key("severity").String(DiagSeverityName(d.severity));
    w.Key("machine").String(d.machine);
    w.Key("property").String(d.property);
    w.Key("state").String(d.state);
    w.Key("transition");
    if (d.transition >= 0) {
      w.Int(d.transition);
    } else {
      w.Null();
    }
    w.Key("line").Int(d.span.line);
    w.Key("column").Int(d.span.column);
    w.Key("message").String(d.message);
    w.Key("note").String(d.note);
    w.End();
  }
  w.End();
  out += '\n';
  return out;
}

void DiagnosticEngine::Report(Diagnostic d) {
  if (promote_warnings_ && d.severity == DiagSeverity::kWarning) {
    d.severity = DiagSeverity::kError;
    if (d.note.empty()) {
      d.note = "promoted from warning by -Werror";
    } else {
      d.note += " (promoted from warning by -Werror)";
    }
  }
  diagnostics_.push_back(std::move(d));
}

std::size_t DiagnosticEngine::ErrorCount() const {
  std::size_t count = 0;
  for (const Diagnostic& d : diagnostics_) {
    count += d.severity == DiagSeverity::kError ? 1 : 0;
  }
  return count;
}

std::size_t DiagnosticEngine::WarningCount() const {
  std::size_t count = 0;
  for (const Diagnostic& d : diagnostics_) {
    count += d.severity == DiagSeverity::kWarning ? 1 : 0;
  }
  return count;
}

std::string DiagnosticEngine::RenderText(const std::string& file) const {
  std::string out;
  for (const Diagnostic& d : diagnostics_) {
    out += RenderDiagnosticText(d, file);
  }
  return out;
}

}  // namespace artemis
