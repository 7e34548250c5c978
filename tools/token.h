#ifndef CLOUDVIEWS_TOOLS_TOKEN_H_
#define CLOUDVIEWS_TOOLS_TOKEN_H_

#include <string>
#include <vector>

namespace cloudviews {
namespace lint {

/// Token kinds emitted by Tokenize(). Comments and preprocessor directive
/// names are emitted as tokens (not discarded) because the lint rules read
/// justification comments (sig-skip, order-insensitive, NOLINT) and need
/// to know a `#include` line from code.
enum class TokenKind {
  kIdentifier,    // foo, operator (keywords are identifiers here)
  kNumber,        // 42, 0x1f, 1'000'000, 3.14e-2
  kString,        // "..." or R"delim(...)delim", prefix included in text
  kCharLit,       // 'c', u8'x'
  kPunct,         // one maximal-munch punctuator: :: -> <=> += ...
  kComment,       // // ... (text w/o newline) or /* ... */ (may span lines)
  kPreprocessor,  // the directive head only: "#include", "#define", "# if"
};

struct Token {
  TokenKind kind = TokenKind::kPunct;
  std::string text;
  int line = 0;  // 1-based line of the token's first character
  // True for every token on a preprocessor logical line (the directive head
  // and the code tokens after it). Lint rules still scan these — a macro
  // body calling srand() is a violation — but the declaration parser must
  // not feed `#include <map>` into class/member recognition.
  bool in_directive = false;

  bool Is(TokenKind k, const char* t) const {
    return kind == k && text == t;
  }
  bool IsIdent(const char* t) const { return Is(TokenKind::kIdentifier, t); }
  bool IsPunct(const char* t) const { return Is(TokenKind::kPunct, t); }
};

/// Lexes C++ source into a token stream. Handles:
///  - backslash-newline line splices (anywhere, including inside literals
///    and comments; spliced tokens report the line they start on)
///  - // and non-nesting /* */ comments, emitted as kComment tokens
///  - string/char literals with escapes and encoding prefixes
///    (u8 u U L), so banned identifiers inside prose never lint
///  - raw strings R"delim( ... )delim" (any prefix) spanning lines
///  - pp-numbers with digit separators (1'000) and exponent signs (1e-9)
///  - preprocessor directives: the `#name` head becomes one kPreprocessor
///    token and the rest of the logical line is lexed as ordinary code, so
///    a macro body defining `srand(...)` still produces a `srand` token
///  - maximal-munch punctuation (::, ->, <=>, <<=, ..., etc.)
/// Unterminated literals are closed at end of file rather than dropped.
std::vector<Token> Tokenize(const std::string& content);

/// True if `text` names an identifier-like token character.
bool IsIdentChar(char c);

}  // namespace lint
}  // namespace cloudviews

#endif  // CLOUDVIEWS_TOOLS_TOKEN_H_
