# Runs one example with malformed arguments and requires that it rejects
# them: exit status 2 and a "usage:" line, rather than a crash or a run on
# a garbage value.
#
# Invoked by CTest as
#   cmake -DBIN=... -DARGS=... -P ExpectUsage.cmake
foreach(var BIN ARGS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "ExpectUsage.cmake: ${var} not set")
  endif()
endforeach()

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args}
                INPUT_FILE /dev/null
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                TIMEOUT 30)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "${BIN} ${ARGS}: expected exit status 2, got '${rc}'\n"
                      "${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "usage: ")
  message(FATAL_ERROR "${BIN} ${ARGS}: no usage line\n${out}${err}")
endif()
