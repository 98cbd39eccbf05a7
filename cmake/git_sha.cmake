# Writes the commit being built into a header, for build provenance:
# bench sidecars (bench/bench_common.hpp) and vlsa_tool's /statusz and
# vlsa_build_info metric.  Run as a script on every build:
#
#   cmake -DSOURCE_DIR=<repo> -DOUTPUT=<header> -P cmake/git_sha.cmake
#
# The header is rewritten only when its content changes, so an
# unchanged tree recompiles nothing, while a new commit reaches every
# binary that reports it on the next build, even in an old build tree.
execute_process(
  COMMAND git rev-parse --short HEAD
  WORKING_DIRECTORY ${SOURCE_DIR}
  OUTPUT_VARIABLE sha
  OUTPUT_STRIP_TRAILING_WHITESPACE
  RESULT_VARIABLE status
  ERROR_QUIET)
if(NOT status EQUAL 0 OR NOT sha)
  set(sha "unknown")
endif()
set(content "#pragma once\n#define VLSA_GIT_SHA \"${sha}\"\n")
if(EXISTS ${OUTPUT})
  file(READ ${OUTPUT} old)
  if(old STREQUAL content)
    return()
  endif()
endif()
file(WRITE ${OUTPUT} "${content}")
