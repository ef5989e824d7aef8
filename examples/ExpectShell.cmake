# Pipes a script into an interactive example and checks what it prints:
# the output must match EXPECT and must not match REJECT (both regexes).
# INPUT holds the script's lines separated by '|'.
#
# Invoked by CTest as
#   cmake -DBIN=... -DARGS=... -DINPUT=... -DEXPECT=... -DREJECT=...
#         -DWORK_DIR=... -P ExpectShell.cmake
foreach(var BIN ARGS INPUT EXPECT REJECT WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "ExpectShell.cmake: ${var} not set")
  endif()
endforeach()

string(REPLACE "|" "\n" script "${INPUT}\n")
file(MAKE_DIRECTORY "${WORK_DIR}")
file(WRITE "${WORK_DIR}/input.txt" "${script}")
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args}
                INPUT_FILE "${WORK_DIR}/input.txt"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                TIMEOUT 30)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "${BIN} ${ARGS}: exit status '${rc}'\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${EXPECT}")
  message(FATAL_ERROR "${BIN} ${ARGS}: no match for '${EXPECT}'\n${out}${err}")
endif()
if("${out}${err}" MATCHES "${REJECT}")
  message(FATAL_ERROR "${BIN} ${ARGS}: unexpected match for '${REJECT}'\n"
                      "${out}${err}")
endif()
