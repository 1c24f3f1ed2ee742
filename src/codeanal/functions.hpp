#pragma once
// Function-boundary detection over the token stream. Used by the cyclomatic
// complexity metric and by the top-down technique's chunk agent, which is
// "syntax-aware and splits files at the function level" (paper §3.2).

#include <string>
#include <vector>

#include "codeanal/lexer.hpp"

namespace pareval::codeanal {

/// A function definition's extent within a token stream.
struct FunctionSpan {
  std::string name;
  int start_line = 0;       // line of the first token of the declarator
  int end_line = 0;         // line of the closing '}'
  std::size_t head_begin = 0;  // token index of the declarator start
  std::size_t body_begin = 0;  // token index just after '{'
  std::size_t body_end = 0;    // token index of the matching '}'
  bool operator==(const FunctionSpan&) const = default;
};

/// Find all top-level function definitions (depth-0 `name(...) {`).
/// Struct/enum bodies are skipped; lambdas inside bodies are not reported.
std::vector<FunctionSpan> find_functions(const std::vector<Token>& toks);

/// One chunk of a source file: either a whole function (plus any directly
/// preceding preprocessor lines / comments context) or a run of file-scope
/// text between functions.
struct Chunk {
  std::string text;
  bool is_function = false;
  std::string function_name;  // set when is_function
};

/// Split a source file at function boundaries such that no chunk exceeds
/// `max_chunk_bytes` where possible. File-scope preamble (includes,
/// globals) forms its own chunk. This is the chunk agent's splitter.
std::vector<Chunk> split_into_chunks(std::string_view source,
                                     std::size_t max_chunk_bytes);

}  // namespace pareval::codeanal
