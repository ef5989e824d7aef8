# Runs an example that reads an edge file on a missing path and on a file
# with a malformed line, and requires that each run fails cleanly: exit
# status 1 and an "error:" line naming the problem, rather than an abort.
#
# Invoked by CTest as
#   cmake -DBIN=... -DWORK_DIR=... -P ExpectBadEdgeFile.cmake
foreach(var BIN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "ExpectBadEdgeFile.cmake: ${var} not set")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
file(WRITE "${WORK_DIR}/malformed.txt" "1 2\nfoo\n")

function(expect_failure path expect)
  execute_process(COMMAND "${BIN}" "${path}"
                  INPUT_FILE /dev/null
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  TIMEOUT 30)
  if(NOT rc STREQUAL "1")
    message(FATAL_ERROR "${BIN} ${path}: expected exit status 1, got "
                        "'${rc}'\n${out}${err}")
  endif()
  if(NOT err MATCHES "error: ${expect}")
    message(FATAL_ERROR "${BIN} ${path}: no 'error: ${expect}' on stderr\n"
                        "${out}${err}")
  endif()
endfunction()

expect_failure("${WORK_DIR}/missing.txt" "cannot open for read")
expect_failure("${WORK_DIR}/malformed.txt" ".*malformed.txt:2: expected")
