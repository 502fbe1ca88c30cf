/// \file detect.hpp
/// Content-based input format detection for the flow layer.
///
/// The CLI (and flow::Module::from_file) accept netlists in more than one
/// concrete syntax; rather than trusting file extensions — which real
/// design kits get wrong constantly — the first significant line of the
/// file decides:
///
///   "hstm"  keyword            -> serialized timing model (.hstm)
///   "hsds"  keyword            -> serialized design state
///   a '.'-directive (".model") -> BLIF
///   INPUT(/OUTPUT(/x = F(...)  -> ISCAS .bench
///
/// Blank lines and '#' comments (shared by .bench and BLIF) are skipped
/// first. Anything else is kUnknown; error paths use format_name() so the
/// message can say what *was* detected next to what would be accepted.

#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>

namespace hssta::flow {

enum class FileFormat {
  kBench,        ///< ISCAS85/89 .bench netlist
  kBlif,         ///< Berkeley Logic Interchange Format netlist
  kHstm,         ///< serialized timing model ("hstm 1"/"hstm 2")
  kDesignState,  ///< serialized incr::DesignState ("hsds 1")
  kUnknown,      ///< nothing recognizable (or an empty document)
};

/// Human-readable name of a format, for diagnostics ("ISCAS .bench",
/// "BLIF", "timing model (.hstm)", "design state (.hsds)", "unknown").
[[nodiscard]] const char* format_name(FileFormat f);

/// Detect the format from document text (first significant line wins).
[[nodiscard]] FileFormat detect_format(std::string_view text);

/// The prefix detect_file_format reads: the first significant line sits
/// well within it for every format we accept (comments ahead of it are
/// skipped line by line).
inline constexpr size_t kDetectPrefixBytes = 64 * 1024;

/// Detect the format of a file by reading its first kDetectPrefixBytes.
/// Throws hssta::Error when the file cannot be opened.
[[nodiscard]] FileFormat detect_file_format(const std::string& path);

}  // namespace hssta::flow
