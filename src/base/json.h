// JSON string escaping shared by every artemis-*/1 writer (sweep, fleet,
// trace, flight and diagnostics renderings).
#ifndef SRC_BASE_JSON_H_
#define SRC_BASE_JSON_H_

#include <string>

namespace artemis {

// Escapes `text` for use inside a JSON string literal: `"` and `\` get a
// backslash, newline and tab become \n and \t, and every other control
// byte (< 0x20) becomes \u00XX.
std::string JsonEscape(const std::string& text);

}  // namespace artemis

#endif  // SRC_BASE_JSON_H_
