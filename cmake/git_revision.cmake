# Writes the revision of the source tree SOURCE_DIR to the C++ source
# OUTPUT, as the definition of itree::kBuildRevision: the 12-digit
# `git rev-parse` of HEAD, with "-dirty" appended when the tree differs
# from it (`git status --porcelain` lists a modified, staged or
# untracked file), or "unknown" outside a git checkout. The build runs
# this on every build, so a bench record never names a revision its
# binary was not built from; OUTPUT is rewritten only when the revision
# changes, so an unchanged tree rebuilds nothing.
#
#   cmake -DSOURCE_DIR=<tree> -DOUTPUT=<file.cpp> -P git_revision.cmake
execute_process(
  COMMAND git rev-parse --short=12 HEAD
  WORKING_DIRECTORY ${SOURCE_DIR}
  OUTPUT_VARIABLE revision
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET
  RESULT_VARIABLE result)
if(NOT result EQUAL 0 OR revision STREQUAL "")
  set(revision unknown)
else()
  execute_process(
    COMMAND git status --porcelain
    WORKING_DIRECTORY ${SOURCE_DIR}
    OUTPUT_VARIABLE changes
    ERROR_QUIET
    RESULT_VARIABLE result)
  if(NOT result EQUAL 0 OR NOT changes STREQUAL "")
    string(APPEND revision "-dirty")
  endif()
endif()
set(content "// Generated by cmake/git_revision.cmake on every build.
namespace itree {
extern const char* const kBuildRevision;
const char* const kBuildRevision = \"${revision}\";
}  // namespace itree
")
if(EXISTS ${OUTPUT})
  file(READ ${OUTPUT} previous)
endif()
if(NOT "${previous}" STREQUAL "${content}")
  file(WRITE ${OUTPUT} "${content}")
endif()
